// Canberra kernel throughput: the canberra.cpp reference ("scalar") vs the
// kernel ("lut") on the DNS/DHCP unique-segment workloads (the pair
// population the pipeline's dissimilarity matrix computes). The timed
// region is pair work only: the batch schedule — the same length-bucketed,
// batched visit order dissimilarity_matrix uses — is prebuilt, and matrix
// assembly, allocation and observability are excluded (bench_fig1_pipeline
// covers end-to-end time). The two rows alternate rep by rep, so their
// ratio compares like conditions. Prints a text table and writes BENCH_kernel.json
// (schema documented in EXPERIMENTS.md). The bench double-checks the
// DESIGN.md §9 contract as it measures: the kernel's result vector must
// hash bit-for-bit identical to the reference's, or the run exits non-zero.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dissim/canberra.hpp"
#include "dissim/kernel.hpp"
#include "dissim/matrix.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace ftc;

/// Trace size per protocol; FTC_BENCH_KERNEL_MESSAGES overrides (CI uses a
/// smaller value to keep the smoke step fast).
std::size_t workload_messages() {
    if (const char* env = std::getenv("FTC_BENCH_KERNEL_MESSAGES")) {
        const long v = std::atol(env);
        if (v > 0) {
            return static_cast<std::size_t>(v);
        }
    }
    return 400;
}

/// Timing repetitions per row (best-of-N against scheduler noise);
/// FTC_BENCH_KERNEL_REPS overrides.
std::size_t workload_reps() {
    if (const char* env = std::getenv("FTC_BENCH_KERNEL_REPS")) {
        const long v = std::atol(env);
        if (v > 0) {
            return static_cast<std::size_t>(v);
        }
    }
    return 5;
}

/// One batched kernel call of the schedule: a row value against up to
/// kEqualBatch partners of one kind (equal-length or sliding).
struct kernel_job {
    byte_view a;
    std::array<byte_view, dissim::kernel::kEqualBatch> parts;
    std::size_t count = 0;
    bool equal = false;
};

/// Rebuild dissimilarity_matrix's visit order: positions sorted by segment
/// length (stable), each row batching equal-length and sliding partners
/// separately. Every unordered pair appears in exactly one job.
std::vector<kernel_job> build_schedule(const std::vector<byte_vector>& values) {
    const std::size_t n = values.size();
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return values[a].size() < values[b].size();
    });
    std::vector<kernel_job> jobs;
    for (std::size_t p = 0; p < n; ++p) {
        const byte_view a{values[order[p]]};
        kernel_job equal_job{a, {}, 0, true};
        kernel_job slide_job{a, {}, 0, false};
        for (std::size_t q = p + 1; q < n; ++q) {
            const byte_view b{values[order[q]]};
            kernel_job& job = a.size() == b.size() ? equal_job : slide_job;
            job.parts[job.count] = b;
            if (++job.count == dissim::kernel::kEqualBatch) {
                jobs.push_back(job);
                job.count = 0;
            }
        }
        if (equal_job.count > 0) {
            jobs.push_back(equal_job);
        }
        if (slide_job.count > 0) {
            jobs.push_back(slide_job);
        }
    }
    return jobs;
}

/// Run the whole schedule once, writing per-pair results in schedule
/// order: pair by pair through the canberra.cpp reference when
/// \p reference, else through the kernel's batch entry points.
void run_schedule(const std::vector<kernel_job>& jobs, bool reference,
                  std::vector<double>& results, dissim::kernel::stats* st) {
    std::size_t w = 0;
    for (const kernel_job& job : jobs) {
        if (reference) {
            for (std::size_t k = 0; k < job.count; ++k) {
                results[w + k] =
                    job.equal ? dissim::canberra_dissimilarity(job.a, job.parts[k])
                              : dissim::sliding_canberra_dissimilarity(job.a, job.parts[k]);
            }
        } else if (job.equal) {
            dissim::kernel::equal_dissimilarity_batch(job.a, job.parts.data(), job.count,
                                                      results.data() + w, st);
        } else {
            dissim::kernel::sliding_dissimilarity_batch(job.a, job.parts.data(), job.count,
                                                        results.data() + w, st);
        }
        w += job.count;
    }
}

struct backend_run {
    const char* backend = "";
    double seconds = 0.0;
    double pairs_per_second = 0.0;
    double bytes_per_second = 0.0;
    double speedup_vs_scalar = 1.0;
    std::uint64_t result_digest = 0;  ///< FNV-1a 64 over the result doubles
    dissim::kernel::stats stats;      ///< kernel row only: one untimed pass
};

struct workload_result {
    std::string protocol;
    std::size_t messages = 0;
    std::size_t unique_segments = 0;
    std::uint64_t pairs = 0;
    std::uint64_t pair_bytes = 0;  ///< sum over pairs of both segment lengths
    std::uint64_t peak_bytes = 0;  ///< peak ftc::mem tracked heap for the workload
    std::vector<backend_run> backends;
};

workload_result run_workload(const std::string& protocol, std::size_t messages) {
    workload_result out;
    out.protocol = protocol;
    out.messages = messages;
    mem::reset_peak();

    const protocols::trace trace =
        protocols::generate_trace(protocol, messages, bench::kBenchSeed);
    const auto bytes = segmentation::message_bytes(trace);
    const std::vector<byte_vector> values =
        dissim::condense(bytes, segmentation::segments_from_annotations(trace)).values;
    const std::size_t n = values.size();
    out.unique_segments = n;
    out.pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t total_len = 0;
    for (const byte_vector& v : values) {
        total_len += v.size();
    }
    // Each value participates in n-1 pairs; per pair both segments count.
    out.pair_bytes = total_len * static_cast<std::uint64_t>(n - 1);

    const std::vector<kernel_job> jobs = build_schedule(values);

    // The two rows alternate rep by rep, each into its own result buffer,
    // so speedup_vs_scalar divides times taken under the same machine
    // conditions. Best-of-N: the minimum is the least-interfered
    // measurement on a shared machine.
    const std::size_t reps = workload_reps();
    backend_run scalar;
    scalar.backend = "scalar";
    backend_run lut;
    lut.backend = dissim::kernel::kName;
    std::vector<double> scalar_results(out.pairs, 0.0);
    std::vector<double> lut_results(out.pairs, 0.0);
    scalar.seconds = lut.seconds = std::numeric_limits<double>::infinity();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const bool reference : {true, false}) {
            backend_run& run = reference ? scalar : lut;
            const stopwatch watch;
            run_schedule(jobs, reference, reference ? scalar_results : lut_results, nullptr);
            run.seconds = std::min(run.seconds, watch.elapsed_seconds());
        }
    }
    run_schedule(jobs, false, lut_results, &lut.stats);  // untimed, for the counters
    for (const auto& [run, results] : {std::pair{&scalar, &scalar_results},
                                       std::pair{&lut, &lut_results}}) {
        run->result_digest = obs::fnv1a64(results->data(), results->size() * sizeof(double));
        run->pairs_per_second = static_cast<double>(out.pairs) / run->seconds;
        run->bytes_per_second = static_cast<double>(out.pair_bytes) / run->seconds;
        run->speedup_vs_scalar = scalar.seconds / run->seconds;
        out.backends.push_back(*run);
    }
    out.peak_bytes = mem::peak_bytes();
    return out;
}

bool write_json(const std::vector<workload_result>& workloads) {
    obs::json_writer w;
    w.begin_object();
    w.key("bench");
    w.value("kernel");
    w.key("meta");
    w.begin_object();
    w.key("git_sha");
    w.value(util::build_git_sha());
    w.key("version");
    w.value(util::build_version_string());
    w.key("build_type");
    w.value(util::build_type());
    w.key("timestamp");
    w.value(util::iso8601_utc_now());
    w.key("hostname");
    w.value(util::run_hostname());
    w.key("threads");
    w.value(static_cast<std::uint64_t>(util::hardware_threads()));
    w.key("kernel_backend");
    w.value(dissim::kernel::kName);
    w.end_object();
    w.key("seed");
    w.value(static_cast<std::uint64_t>(bench::kBenchSeed));
    w.key("workloads");
    w.begin_array();
    for (const workload_result& wl : workloads) {
        w.begin_object();
        w.key("protocol");
        w.value(wl.protocol);
        w.key("messages");
        w.value(static_cast<std::uint64_t>(wl.messages));
        w.key("unique_segments");
        w.value(static_cast<std::uint64_t>(wl.unique_segments));
        w.key("pairs");
        w.value(wl.pairs);
        w.key("pair_bytes");
        w.value(wl.pair_bytes);
        w.key("peak_bytes");
        w.value(wl.peak_bytes);
        w.key("backends");
        w.begin_array();
        for (const backend_run& run : wl.backends) {
            w.begin_object();
            w.key("backend");
            w.value(run.backend);
            w.key("seconds");
            w.value(run.seconds);
            w.key("pairs_per_second");
            w.value(run.pairs_per_second);
            w.key("bytes_per_second");
            w.value(run.bytes_per_second);
            w.key("speedup_vs_scalar");
            w.value(run.speedup_vs_scalar);
            w.key("result_fnv1a64");
            w.value(run.result_digest);
            w.key("invocations");
            w.value(run.stats.invocations);
            w.key("equal_fast_path");
            w.value(run.stats.equal_fast_path);
            w.key("windows_total");
            w.value(run.stats.windows_total);
            w.key("windows_pruned");
            w.value(run.stats.windows_pruned);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out("BENCH_kernel.json", std::ios::binary | std::ios::trunc);
    const std::string json = w.take();
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    return static_cast<bool>(out);
}

}  // namespace

int main() {
    const std::size_t messages = workload_messages();
    std::vector<workload_result> workloads;
    for (const std::string protocol : {"DNS", "DHCP"}) {
        workloads.push_back(run_workload(protocol, messages));
    }

    text_table table({"proto", "uniq", "pairs", "backend", "seconds", "Mpairs/s", "MB/s",
                      "speedup", "pruned%"});
    bool digests_match = true;
    for (const workload_result& wl : workloads) {
        for (const backend_run& run : wl.backends) {
            const double pruned_pct =
                run.stats.windows_total == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(run.stats.windows_pruned) /
                          static_cast<double>(run.stats.windows_total);
            table.add_row({wl.protocol, std::to_string(wl.unique_segments),
                           std::to_string(wl.pairs),
                           run.backend,
                           format_fixed(run.seconds, 3),
                           format_fixed(run.pairs_per_second / 1e6, 2),
                           format_fixed(run.bytes_per_second / 1e6, 1),
                           format_fixed(run.speedup_vs_scalar, 2) + "x",
                           format_fixed(pruned_pct, 1)});
            digests_match =
                digests_match && run.result_digest == wl.backends.front().result_digest;
        }
    }
    std::fputs(table.render().c_str(), stdout);

    if (!write_json(workloads)) {
        std::fputs("warning: could not write BENCH_kernel.json\n", stderr);
    } else {
        std::fputs("wrote BENCH_kernel.json\n", stdout);
    }
    if (!digests_match) {
        std::fputs("FAIL: the kernel and the reference produced different results\n", stderr);
        return 1;
    }
    std::printf("determinism: kernel bitwise identical to the reference (fnv1a64 0x%016llx)\n",
                static_cast<unsigned long long>(workloads.front().backends.front().result_digest));
    return 0;
}
