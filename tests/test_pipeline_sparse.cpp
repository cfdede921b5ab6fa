// Integration test of the engine choice through the checkpoint manager: the
// neighbor lists a memory-pressured run checkpoints must resume, without the
// pressure, into the unpressured run's report. That a fresh run renders the
// same report as a run seeded with the other engine's substrate, at any
// thread count, is a variant of every row of the ledger (test_ledger).
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "mem/mem.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/temp_path.hpp"
#include "util/diag.hpp"

namespace ftc {
namespace {

namespace fs = std::filesystem;

/// Surviving indices of a segmentation that quarantined no message.
std::vector<std::size_t> every_index(std::size_t n) {
    std::vector<std::size_t> out(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
}

struct scenario {
    std::vector<byte_vector> messages;
    segmentation::message_segments segments;
};

std::string report(const core::pipeline_result& result) {
    return core::render_report(core::summarize_clusters(result));
}

void expect_identical(const core::pipeline_result& a, const core::pipeline_result& b) {
    EXPECT_EQ(a.unique.values, b.unique.values);
    EXPECT_EQ(a.clustering.labels.labels, b.clustering.labels.labels);
    // Exact double equality on purpose: resume promises bitwise parity.
    EXPECT_EQ(a.clustering.config.epsilon, b.clustering.config.epsilon);
    EXPECT_EQ(a.clustering.config.min_samples, b.clustering.config.min_samples);
    EXPECT_EQ(a.clustering.config.selected_k, b.clustering.config.selected_k);
    EXPECT_EQ(a.clustering.reconfigurations, b.clustering.reconfigurations);
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
    EXPECT_EQ(a.final_labels.cluster_count, b.final_labels.cluster_count);
}

class PipelineSparseCkpt : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = testing::temp_path("ftc_pipeline_sparse_ckpt");
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(PipelineSparseCkpt, PressuredSnapshotResumesIntoTheUnpressuredReport) {
    // Annotated DNS 400 (487 unique segments) is far below the threshold:
    // unpressured, it builds the matrix, which dwarfs every other tracked
    // buffer. A cap a quarter matrix below that run's peak makes the
    // checkpointed run build the sparse engine and write neighbors.ckpt.
    const protocols::trace t = protocols::generate_trace("DNS", 400, 7);
    const scenario s{segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
    mem::reset_peak();
    const core::pipeline_result reference = core::analyze_segments(s.messages, s.segments);
    const std::uint64_t n = reference.unique.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    ASSERT_GT(mem::peak_bytes(), dense_bytes);

    core::pipeline_options pressured;
    pressured.max_memory = static_cast<std::size_t>(mem::peak_bytes() - dense_bytes / 4);
    // max_memory is a speed knob, outside the fingerprint.
    const ckpt::options_fingerprint fp = ckpt::fingerprint(pressured, "true", 7);
    EXPECT_EQ(ckpt::fingerprint(core::pipeline_options{}, "true", 7), fp);
    {
        ckpt::checkpoint_manager manager(dir_, fp);
        manager.on_segments(s.segments, every_index(s.messages.size()));
        core::pipeline_options copt = pressured;
        copt.observer = &manager;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        (void)core::analyze_seeded(s.messages, nullptr, std::move(seed), copt);
    }
    EXPECT_TRUE(fs::exists(dir_ / ckpt::checkpoint_manager::kNeighborsFile));

    // Drop the clustering snapshot so the resume actually consumes the
    // adopted neighbor lists instead of skipping straight to the labels.
    fs::remove(dir_ / ckpt::checkpoint_manager::kClusteringFile);

    diag::error_sink sink(diag::policy::lenient);
    ckpt::checkpoint_manager manager(dir_, fp);
    ckpt::restored_state restored = manager.load(s.messages, sink);
    EXPECT_EQ(restored.stages,
              (std::vector<std::string>{"segmentation", "dissimilarity"}));
    ASSERT_TRUE(restored.seed.neighbors.has_value());
    EXPECT_FALSE(restored.seed.matrix.has_value());

    core::pipeline_options ropt;
    ropt.observer = &manager;
    const core::pipeline_result resumed =
        core::analyze_seeded(restored.messages, nullptr, std::move(restored.seed), ropt);
    expect_identical(reference, resumed);
    EXPECT_EQ(report(reference), report(resumed));
}

}  // namespace
}  // namespace ftc
