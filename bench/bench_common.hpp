/// \file bench_common.hpp
/// Shared harness code for the table/figure reproduction binaries.
///
/// Every bench regenerates its rows from scratch: synthesize the trace,
/// round-trip it through pcap bytes, segment (ground truth or heuristic),
/// run the clustering pipeline, and score against the ground truth.
/// The FTC_BENCH_BUDGET_SECONDS environment variable bounds each analysis
/// run (default 60 s); runs exceeding it are reported as "fails", matching
/// the paper's Table II entries.
#pragma once

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "dissim/kernel.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/build_info.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ftc::bench {

/// Deterministic seed shared by all benches so tables are reproducible.
inline constexpr std::uint64_t kBenchSeed = 20220627;  // DSN-W 2022 week

/// Per-run wall clock budget (seconds).
inline double budget_seconds() {
    if (const char* env = std::getenv("FTC_BENCH_BUDGET_SECONDS")) {
        const double v = std::atof(env);
        if (v > 0) {
            return v;
        }
    }
    return 60.0;
}

/// One evaluated analysis run.
struct run_result {
    bool failed = false;          ///< budget/memory blowup ("fails")
    std::string failure_reason;
    std::size_t messages = 0;
    std::size_t unique_fields = 0;  ///< unique >=2-byte segment values
    double epsilon = 0.0;
    core::clustering_quality quality;
    double elapsed_seconds = 0.0;
    /// Peak ftc::mem tracked heap during the run (bytes): the footprint a
    /// --max-memory budget would be compared against, tracked per row so
    /// memory regressions show up in BENCH_*.json diffs like time ones do.
    std::uint64_t peak_bytes = 0;
    /// Concrete segments per unique value (total / unique, 0 when unknown):
    /// the compression the memory-pressure dedup rung would achieve.
    double dedup_ratio = 0.0;
    /// Per-stage timings from ftc::obs (execution order), so the bench
    /// tables carry a breakdown of *where* each run spent its budget.
    std::vector<obs::manifest_stage> stages;
    /// Bench-specific numeric extras, emitted as additional top-level keys
    /// of the run's JSON object. Names must be plain identifiers distinct
    /// from the fixed row keys, and every name a bench emits is documented
    /// in EXPERIMENTS.md (tools/doc_lint enforces the pairing).
    std::vector<std::pair<std::string, double>> extras;

    /// Append one extra measurement (chainable).
    run_result& extra(std::string name, double value) {
        extras.emplace_back(std::move(name), value);
        return *this;
    }
};

/// Generate the deduplicated trace for a protocol/size, routed through real
/// pcap bytes (the ingestion path an analyst would use).
inline protocols::trace make_trace(const std::string& protocol, std::size_t size) {
    const protocols::trace generated = protocols::generate_trace(protocol, size, kBenchSeed);
    // Round-trip through capture bytes; re-annotate from wire content. Flow
    // metadata for FieldHunter-style context is preserved from generation.
    const pcap::capture cap = protocols::trace_to_capture(generated);
    protocols::trace rebuilt = protocols::trace_from_payloads(
        protocol, protocols::capture_payloads(pcap::from_pcap_bytes(pcap::to_pcap_bytes(cap))));
    for (std::size_t i = 0; i < rebuilt.messages.size(); ++i) {
        rebuilt.messages[i].flow = generated.messages[i].flow;
        rebuilt.messages[i].is_request = generated.messages[i].is_request;
    }
    return rebuilt;
}

/// Run the clustering pipeline on a segmentation and score it.
inline run_result score_pipeline(const protocols::trace& truth,
                                 const std::vector<byte_vector>& messages,
                                 segmentation::message_segments segments,
                                 double budget) {
    run_result out;
    out.messages = truth.messages.size();
    // Record stage timings for this run; a failed run keeps the stages it
    // completed before the budget tripped.
    obs::scoped_recorder recorder;
    mem::reset_peak();
    try {
        core::pipeline_options opt;
        opt.budget_seconds = budget;
        const core::pipeline_result r =
            core::analyze_segments(messages, std::move(segments), opt);
        out.unique_fields = r.unique.size();
        out.epsilon = r.clustering.config.epsilon;
        if (r.unique.size() > 0) {
            out.dedup_ratio = static_cast<double>(r.unique.total_occurrences()) /
                              static_cast<double>(r.unique.size());
        }
        const core::typed_segments typed = core::assign_types(truth, r.unique);
        out.quality = core::evaluate_clustering(r.final_labels, typed, truth.total_bytes());
        out.elapsed_seconds = r.elapsed_seconds;
    } catch (const budget_exceeded_error& e) {
        out.failed = true;
        out.failure_reason = e.what();
    } catch (const error& e) {
        out.failed = true;
        out.failure_reason = e.what();
    }
    out.peak_bytes = mem::peak_bytes();
    out.stages = obs::collect_stages(recorder.rec().trace());
    return out;
}

/// Ground-truth segmentation run (Table I).
inline run_result run_ground_truth(const std::string& protocol, std::size_t size) {
    const protocols::trace truth = make_trace(protocol, size);
    const auto messages = segmentation::message_bytes(truth);
    return score_pipeline(truth, messages, segmentation::segments_from_annotations(truth),
                          budget_seconds());
}

/// Heuristic segmentation run (Table II).
inline run_result run_heuristic(const std::string& protocol, std::size_t size,
                                const std::string& segmenter_name) {
    const protocols::trace truth = make_trace(protocol, size);
    const auto messages = segmentation::message_bytes(truth);
    run_result out;
    out.messages = truth.messages.size();
    const double budget = budget_seconds();
    try {
        // Segment on as many lanes as score_pipeline's pipeline uses.
        const auto segmenter =
            segmentation::make_segmenter(segmenter_name, core::pipeline_options{}.threads);
        const stopwatch watch;
        std::vector<obs::manifest_stage> seg_stages;
        segmentation::message_segments segments = [&] {
            // Separate recorder for the segmentation stage: score_pipeline
            // installs its own, and stages are concatenated below.
            obs::scoped_recorder recorder;
            segmentation::message_segments segs = segmenter->run(messages, deadline(budget));
            seg_stages = obs::collect_stages(recorder.rec().trace());
            return segs;
        }();
        const double remaining = budget - watch.elapsed_seconds();
        if (remaining <= 0) {
            throw budget_exceeded_error(segmenter_name + ": budget exhausted");
        }
        out = score_pipeline(truth, messages, std::move(segments), remaining);
        out.stages.insert(out.stages.begin(), seg_stages.begin(), seg_stages.end());
        out.elapsed_seconds = watch.elapsed_seconds();  // segmentation + clustering
    } catch (const error& e) {
        out.failed = true;
        out.failure_reason = e.what();
    }
    return out;
}

/// Accumulates bench rows and writes them as BENCH_<name>.json next to the
/// text table, so runs are diffable by machines (CI perf tracking) — each
/// row carries the scored quality plus the ftc::obs stage breakdown.
class bench_report {
public:
    explicit bench_report(std::string name) : name_(std::move(name)) {}

    void add(std::string label, const run_result& r) {
        runs_.push_back({std::move(label), r});
    }

    /// Write BENCH_<name>.json into the working directory; returns the
    /// file name (empty on I/O failure — benches keep going, the table on
    /// stdout is the primary artifact).
    std::string write() const {
        obs::json_writer w;
        w.begin_object();
        w.key("bench");
        w.value(name_);
        // Run provenance: which commit, build, host and kernel produced the
        // numbers — without them two files cannot say what changed between
        // them.
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
        w.value(static_cast<std::uint64_t>(kBenchSeed));
        w.key("budget_seconds");
        w.value(budget_seconds());
        w.key("runs");
        w.begin_array();
        for (const entry& e : runs_) {
            const run_result& r = e.result;
            w.begin_object();
            w.key("label");
            w.value(e.label);
            w.key("failed");
            w.value(r.failed);
            if (r.failed) {
                w.key("failure_reason");
                w.value(r.failure_reason);
            }
            w.key("messages");
            w.value(static_cast<std::uint64_t>(r.messages));
            w.key("unique_fields");
            w.value(static_cast<std::uint64_t>(r.unique_fields));
            w.key("epsilon");
            w.value(r.epsilon);
            w.key("precision");
            w.value(r.quality.precision);
            w.key("recall");
            w.value(r.quality.recall);
            w.key("f_score");
            w.value(r.quality.f_score);
            w.key("coverage");
            w.value(r.quality.coverage);
            w.key("elapsed_seconds");
            w.value(r.elapsed_seconds);
            w.key("peak_bytes");
            w.value(r.peak_bytes);
            w.key("dedup_ratio");
            w.value(r.dedup_ratio);
            for (const auto& [name, value] : r.extras) {
                w.key(name);
                w.value(value);
            }
            w.key("stages");
            w.begin_array();
            for (const obs::manifest_stage& s : r.stages) {
                w.begin_object();
                w.key("name");
                w.value(s.name);
                w.key("wall_seconds");
                w.value(s.wall_seconds);
                w.key("cpu_seconds");
                w.value(s.cpu_seconds);
                w.key("counts");
                w.begin_object();
                for (const obs::span_arg& a : s.counts) {
                    w.key(a.key);
                    w.value(a.value);
                }
                w.end_object();
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();

        const std::string file = "BENCH_" + name_ + ".json";
        std::ofstream outfile(file, std::ios::binary | std::ios::trunc);
        const std::string json = w.take();
        outfile.write(json.data(), static_cast<std::streamsize>(json.size()));
        return outfile ? file : std::string{};
    }

private:
    struct entry {
        std::string label;
        run_result result;
    };

    std::string name_;
    std::vector<entry> runs_;
};

}  // namespace ftc::bench
