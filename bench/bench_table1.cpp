/// \file bench_table1.cpp
/// Reproduces **Table I**: clustering statistics for data type clustering
/// from ground truth (perfect segmentation), per protocol and trace size.
///
/// Paper columns: protocol, messages, unique fields, auto-configured
/// epsilon, precision, recall, F_{1/4}. Large traces use the paper's sizes
/// (1000; 768 for AWDL; 123 for AU), small traces 100 messages.
///
/// The small rows and AU are pinned exactly, at full precision, by the
/// tier-1 ledger (tests/ledger.json, EXPERIMENTS.md "Ledger").
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
    using namespace ftc;
    std::printf(
        "Table I reproduction — clustering statistics for data type clustering\n"
        "from ground-truth segmentation (synthetic traces, seed %llu).\n\n",
        static_cast<unsigned long long>(bench::kBenchSeed));

    text_table table({"proto", "msgs", "fields", "eps", "P", "R", "F1/4", "time"});
    table.set_align(0, align::left);
    bench::bench_report report("table1");

    auto add_run = [&](const std::string& proto, std::size_t size) {
        const bench::run_result r = bench::run_ground_truth(proto, size);
        report.add(proto + "@" + std::to_string(size), r);
        if (r.failed) {
            table.add_row({proto, std::to_string(r.messages), "-", "-", "-", "-", "fails",
                           "-"});
            return;
        }
        table.add_row({proto, std::to_string(r.messages), std::to_string(r.unique_fields),
                       format_fixed(r.epsilon, 3), format_fixed(r.quality.precision, 2),
                       format_fixed(r.quality.recall, 2), format_fixed(r.quality.f_score, 2),
                       format_fixed(r.elapsed_seconds, 1) + "s"});
    };

    // Large traces (paper sizes).
    for (const char* proto : {"DHCP", "DNS", "NBNS", "NTP", "SMB", "AWDL"}) {
        add_run(proto, protocols::paper_trace_size(proto));
    }
    // Small traces (100 messages) plus the single AU trace.
    for (const char* proto : {"DHCP", "DNS", "NBNS", "NTP", "SMB", "AWDL"}) {
        add_run(proto, 100);
    }
    add_run("AU", protocols::paper_trace_size("AU"));

    std::fputs(table.render().c_str(), stdout);
    const std::string json = report.write();
    if (!json.empty()) {
        std::printf("\nwrote %s (machine-readable rows + stage timings)\n", json.c_str());
    }
    std::printf(
        "\nPaper reference (Table I): F1/4 near 1 for most protocols; SMB@1000\n"
        "is the worst case (paper: P=0.59) because timestamps and signatures\n"
        "merge into one cluster; complex protocols (DHCP, SMB) lose recall on\n"
        "100-message traces.\n");
    return 0;
}
