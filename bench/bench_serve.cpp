/// \file bench_serve.cpp
/// Serving-path characterization (DESIGN.md §14).
///
/// Three rows in BENCH_serve.json, one per robustness property the daemon
/// advertises:
///  - "latency": a steady one-at-a-time submit/drain loop over the session
///    manager; per-session wall clock lands as latency_p50_ms /
///    latency_p99_ms, with jobs counting the loop length.
///  - "overload": a burst far past queue_depth against a single slow
///    worker; shed_count / shed_rate measure how much the admission gate
///    refused (politely, with a reason) instead of queueing unboundedly.
///  - "recovery": a journaled spool replayed by a fresh manager, timing
///    recover()+drain() as recovery_seconds over recovered_jobs — the cost
///    of a kill -9 in steady state.
///
/// The binary self-gates: a failed session, an unshed burst, or a lost
/// recovery job exits non-zero, so CI catches broken serving.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pcap/pcap.hpp"
#include "serve/session.hpp"
#include "util/table.hpp"

namespace {

using namespace ftc;
namespace fs = std::filesystem;

byte_vector make_capture(const std::string& protocol, std::size_t messages) {
    const protocols::trace t =
        protocols::generate_trace(protocol, messages, bench::kBenchSeed);
    return pcap::to_pcap_bytes(protocols::trace_to_capture(t));
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

serve::serve_options bench_options() {
    serve::serve_options options;
    options.sessions = 1;  // one worker: per-session latency is undiluted
    options.pipeline_threads = 1;
    return options;
}

std::string fixed(double v, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

}  // namespace

int main() {
    const fs::path root = fs::temp_directory_path() / "ftc_bench_serve";
    fs::remove_all(root);
    const byte_vector capture = make_capture("NTP", 40);
    const byte_view payload{capture.data(), capture.size()};

    bench::bench_report report("serve");
    text_table table({"row", "jobs", "p50 ms", "p99 ms", "shed%", "recovery s"});
    bool ok = true;

    // Row 1: steady-state session latency, one job in flight at a time.
    constexpr int kLatencyJobs = 12;
    {
        serve::spool journal(root / "latency");
        serve::session_manager sessions(journal, bench_options());
        sessions.start();
        std::vector<double> latencies_ms;
        mem::reset_peak();
        const stopwatch total;
        for (int i = 0; i < kLatencyJobs; ++i) {
            const stopwatch per;
            const serve::admission a = sessions.submit(payload);
            sessions.drain();
            ok = ok && a.accepted &&
                 sessions.status(a.id)->state == serve::job_state::done;
            latencies_ms.push_back(per.elapsed_seconds() * 1000.0);
        }
        bench::run_result r;
        r.failed = !ok;
        r.messages = 40;
        r.elapsed_seconds = total.elapsed_seconds();
        r.peak_bytes = mem::peak_bytes();
        r.extra("jobs", kLatencyJobs)
            .extra("latency_p50_ms", percentile(latencies_ms, 0.50))
            .extra("latency_p99_ms", percentile(latencies_ms, 0.99));
        table.add_row({"latency", std::to_string(kLatencyJobs),
                       fixed(percentile(latencies_ms, 0.50), 1),
                       fixed(percentile(latencies_ms, 0.99), 1), "-", "-"});
        report.add("latency NTP-40", r);
        sessions.stop();
    }

    // Row 2: a burst past the queue against one busy worker — the gate
    // must shed most of it instead of queueing without bound.
    constexpr int kBurst = 32;
    {
        serve::spool journal(root / "overload");
        serve::serve_options options = bench_options();
        options.queue_depth = 2;
        serve::session_manager sessions(journal, options);
        sessions.start();
        int shed = 0;
        mem::reset_peak();
        const stopwatch total;
        for (int i = 0; i < kBurst; ++i) {
            const serve::admission a = sessions.submit(payload);
            shed += a.accepted ? 0 : 1;
        }
        sessions.drain();
        const double shed_rate = static_cast<double>(shed) / kBurst;
        // With a depth-2 queue a burst of 32 must shed something; accepted
        // jobs must all land.
        ok = ok && shed > 0;
        for (const serve::spool_entry& entry : [&] {
                 diag::error_sink sink(diag::policy::lenient);
                 return journal.scan(sink);
             }()) {
            ok = ok && entry.phase == serve::job_phase::done;
        }
        bench::run_result r;
        r.failed = !ok;
        r.messages = 40;
        r.elapsed_seconds = total.elapsed_seconds();
        r.peak_bytes = mem::peak_bytes();
        r.extra("jobs", kBurst)
            .extra("shed_count", shed)
            .extra("shed_rate", shed_rate);
        table.add_row({"overload", std::to_string(kBurst), "-", "-",
                       fixed(shed_rate * 100.0, 1), "-"});
        report.add("overload burst-32", r);
        sessions.stop();
    }

    // Row 3: crash recovery — a spool full of accepted-but-unrun jobs
    // replayed by a fresh manager, the way a post-kill restart would.
    constexpr int kRecoverJobs = 6;
    {
        {
            serve::spool seeded(root / "recovery");
            for (int i = 0; i < kRecoverJobs; ++i) {
                (void)seeded.append(payload);
            }
        }
        serve::spool journal(root / "recovery");
        serve::session_manager sessions(journal, bench_options());
        mem::reset_peak();
        const stopwatch total;
        const std::size_t replayed = sessions.recover();
        sessions.start();
        sessions.drain();
        const double recovery_seconds = total.elapsed_seconds();
        ok = ok && replayed == kRecoverJobs;
        for (int id = 1; id <= kRecoverJobs; ++id) {
            const auto status = sessions.status(static_cast<std::uint64_t>(id));
            ok = ok && status.has_value() && status->state == serve::job_state::done;
        }
        bench::run_result r;
        r.failed = !ok;
        r.messages = 40;
        r.elapsed_seconds = recovery_seconds;
        r.peak_bytes = mem::peak_bytes();
        r.extra("jobs", kRecoverJobs)
            .extra("recovered_jobs", static_cast<double>(replayed))
            .extra("recovery_seconds", recovery_seconds);
        table.add_row({"recovery", std::to_string(kRecoverJobs), "-", "-", "-",
                       fixed(recovery_seconds, 2)});
        report.add("recovery spool-6", r);
        sessions.stop();
    }

    std::fputs(table.render().c_str(), stdout);
    const std::string file = report.write();
    if (file.empty()) {
        std::fputs("warning: could not write BENCH_serve.json\n", stderr);
    } else {
        std::printf("wrote %s\n", file.c_str());
    }
    fs::remove_all(root);
    if (!ok) {
        std::fputs("FAIL: serving-path invariant violated (see rows)\n", stderr);
        return 1;
    }
    return 0;
}
