// Observability must never change a result: the full pipeline with the
// recorder installed is bitwise identical to the uninstrumented run, at
// threads=1 (legacy serial path) and threads=0 (all hardware lanes).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "pcap/decap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"

namespace ftc {
namespace {

core::pipeline_result run_pipeline(std::size_t threads) {
    const protocols::trace truth = protocols::generate_trace("DNS", 120, 7);
    core::pipeline_options opt;
    opt.budget_seconds = 120;
    opt.threads = threads;
    return core::analyze_segments(segmentation::message_bytes(truth),
                                  segmentation::segments_from_annotations(truth), opt);
}

/// Everything result-bearing must match exactly — no tolerance.
void expect_identical(const core::pipeline_result& a, const core::pipeline_result& b) {
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
    EXPECT_EQ(a.final_labels.cluster_count, b.final_labels.cluster_count);
    EXPECT_EQ(a.unique.size(), b.unique.size());
    // Bitwise comparison of the auto-configured parameters.
    EXPECT_EQ(a.clustering.config.epsilon, b.clustering.config.epsilon);
    EXPECT_EQ(a.clustering.config.min_samples, b.clustering.config.min_samples);
    EXPECT_EQ(a.clustering.labels.labels, b.clustering.labels.labels);
}

class ObsDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsDeterminism, RecorderDoesNotChangeClustering) {
    const std::size_t threads = GetParam();
    const core::pipeline_result baseline = run_pipeline(threads);
    core::pipeline_result observed = [&] {
        obs::scoped_recorder recorder;
        return run_pipeline(threads);
    }();
    expect_identical(baseline, observed);
    // And a run after the recorder is torn down again matches too.
    expect_identical(baseline, run_pipeline(threads));
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, ObsDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{0}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return info.param == 1 ? "serial" : "hardware";
                         });

TEST(ObsDeterminism, SerialAndParallelAgreeWithRecorder) {
    // The existing threads-equivalence guarantee must hold with the
    // recorder installed: instrumentation happens outside the math.
    obs::scoped_recorder recorder;
    expect_identical(run_pipeline(1), run_pipeline(0));
}

TEST(ObsDeterminism, SpanlessRecorderCountsWhatAFullOneCounts) {
    // The daemon's recorder drops spans, and every counter a stage
    // publishes must still reach it: apart from the one time-valued
    // counter, both recorders end with the same counters.
    const auto counters = [](obs::spans kept) {
        const obs::scoped_recorder recorder(kept);
        (void)pcap::extract_datagrams(
            protocols::trace_to_capture(protocols::generate_trace("DNS", 120, 7)));
        (void)run_pipeline(2);
        EXPECT_EQ(recorder.rec().trace().spans.empty(), kept == obs::spans::drop);
        std::map<std::string, double> out = recorder.rec().metrics().snapshot().counters;
        out.erase("threadpool.busy_seconds");
        return out;
    };
    const std::map<std::string, double> full = counters(obs::spans::keep);
    for (const char* name : {"cluster.dbscan_runs_total", "dissim.matrix.cells_scanned_total",
                             "pcap.datagrams_total"}) {
        EXPECT_EQ(full.count(name), 1u) << name;
    }
    EXPECT_EQ(counters(obs::spans::drop), full);
}

}  // namespace
}  // namespace ftc
