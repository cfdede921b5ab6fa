// Integration tests of the --neighborhood modes through core::analyze and
// the checkpoint manager: the sparse engine must leave every pipeline
// output byte-identical to the dense default, the auto threshold must pick
// dense for small corpora, and a sparse run must checkpoint/resume through
// neighbors.ckpt exactly like a dense run does through matrix.ckpt.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
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

scenario make_scenario(const char* protocol = "DNS", std::size_t count = 60,
                       std::uint64_t seed = 7) {
    const protocols::trace t = protocols::generate_trace(protocol, count, seed);
    return {segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
}

core::pipeline_result run_with_mode(const scenario& s, dissim::neighborhood_mode mode,
                                    std::size_t threads = 1) {
    core::pipeline_options opt;
    opt.neighborhood = mode;
    opt.threads = threads;
    return core::analyze_segments(s.messages, s.segments, opt);
}

void expect_identical(const core::pipeline_result& a, const core::pipeline_result& b) {
    EXPECT_EQ(a.unique.values, b.unique.values);
    EXPECT_EQ(a.clustering.labels.labels, b.clustering.labels.labels);
    EXPECT_EQ(a.clustering.labels.cluster_count, b.clustering.labels.cluster_count);
    // Exact double equality on purpose: the engines promise bitwise parity.
    EXPECT_EQ(a.clustering.config.epsilon, b.clustering.config.epsilon);
    EXPECT_EQ(a.clustering.config.min_samples, b.clustering.config.min_samples);
    EXPECT_EQ(a.clustering.config.selected_k, b.clustering.config.selected_k);
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
    EXPECT_EQ(a.final_labels.cluster_count, b.final_labels.cluster_count);
}

TEST(PipelineSparse, SparseAndDenseReportsAreByteIdentical) {
    const scenario s = make_scenario();
    const core::pipeline_result dense = run_with_mode(s, dissim::neighborhood_mode::dense);
    const core::pipeline_result sparse = run_with_mode(s, dissim::neighborhood_mode::sparse);
    expect_identical(dense, sparse);
    const std::string dense_report =
        core::render_report(core::summarize_clusters(dense));
    const std::string sparse_report =
        core::render_report(core::summarize_clusters(sparse));
    EXPECT_EQ(dense_report, sparse_report);
}

TEST(PipelineSparse, SparseResultsIdenticalAcrossThreadCountsAndProtocols) {
    for (const char* protocol : {"DHCP", "NTP"}) {
        const scenario s = make_scenario(protocol, 50, 11);
        const core::pipeline_result serial =
            run_with_mode(s, dissim::neighborhood_mode::sparse, 1);
        const core::pipeline_result parallel =
            run_with_mode(s, dissim::neighborhood_mode::sparse, 4);
        expect_identical(serial, parallel);
        const core::pipeline_result dense =
            run_with_mode(s, dissim::neighborhood_mode::dense, 1);
        expect_identical(dense, serial);
    }
}

/// Observer that records which dissimilarity snapshot hook fired.
struct mode_probe : core::stage_observer {
    bool saw_matrix = false;
    bool saw_neighbors = false;
    void on_matrix(const dissim::unique_segments&, const dissim::dissimilarity_matrix&,
                   const std::vector<std::vector<double>>&) override {
        saw_matrix = true;
    }
    void on_neighbors(const dissim::unique_segments&, const dissim::capped_neighbors&,
                      const std::vector<std::vector<double>>&) override {
        saw_neighbors = true;
    }
};

TEST(PipelineSparse, AutoModePicksDenseBelowTheUniqueThreshold) {
    const scenario s = make_scenario();
    core::pipeline_options opt;
    mode_probe probe;
    opt.observer = &probe;
    opt.neighborhood = dissim::neighborhood_mode::auto_;
    (void)core::analyze_segments(s.messages, s.segments, opt);
    EXPECT_TRUE(probe.saw_matrix);
    EXPECT_FALSE(probe.saw_neighbors);

    mode_probe forced;
    opt.observer = &forced;
    opt.neighborhood = dissim::neighborhood_mode::sparse;
    (void)core::analyze_segments(s.messages, s.segments, opt);
    EXPECT_TRUE(forced.saw_neighbors);
    EXPECT_FALSE(forced.saw_matrix);
}

class PipelineSparseCkpt : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "ftc_pipeline_sparse_ckpt";
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(PipelineSparseCkpt, SparseRunResumesThroughNeighborsCkpt) {
    const scenario s = make_scenario();
    core::pipeline_options opt;
    opt.neighborhood = dissim::neighborhood_mode::sparse;
    const ckpt::options_fingerprint fp = ckpt::fingerprint(opt, "true", 7);
    const core::pipeline_result reference = core::analyze_segments(s.messages, s.segments, opt);

    {
        ckpt::checkpoint_manager manager(dir_, fp);
        manager.on_segments(s.segments, every_index(s.messages.size()));
        core::pipeline_options copt = opt;
        copt.observer = &manager;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        (void)core::analyze_seeded(s.messages, nullptr, std::move(seed), copt);
    }
    EXPECT_TRUE(fs::exists(dir_ / ckpt::checkpoint_manager::kNeighborsFile));
    EXPECT_FALSE(fs::exists(dir_ / ckpt::checkpoint_manager::kMatrixFile));

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

    core::pipeline_options ropt = opt;
    ropt.observer = &manager;
    const core::pipeline_result resumed =
        core::analyze_seeded(restored.messages, nullptr, std::move(restored.seed), ropt);
    expect_identical(reference, resumed);
}

TEST_F(PipelineSparseCkpt, SparseSnapshotResumesIdenticallyIntoADenseModeRun) {
    // The neighborhood mode is deliberately outside the ckpt fingerprint:
    // a snapshot written by a sparse run must seed a dense-mode resume and
    // still land on the same bits.
    const scenario s = make_scenario();
    core::pipeline_options opt;
    opt.neighborhood = dissim::neighborhood_mode::sparse;
    const ckpt::options_fingerprint fp_sparse = ckpt::fingerprint(opt, "true", 7);
    core::pipeline_options dense_opt;
    dense_opt.neighborhood = dissim::neighborhood_mode::dense;
    EXPECT_EQ(ckpt::fingerprint(dense_opt, "true", 7), fp_sparse);

    {
        ckpt::checkpoint_manager manager(dir_, fp_sparse);
        manager.on_segments(s.segments, every_index(s.messages.size()));
        core::pipeline_options copt = opt;
        copt.observer = &manager;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        (void)core::analyze_seeded(s.messages, nullptr, std::move(seed), copt);
    }
    fs::remove(dir_ / ckpt::checkpoint_manager::kClusteringFile);

    diag::error_sink sink(diag::policy::lenient);
    ckpt::checkpoint_manager manager(dir_, fp_sparse);
    ckpt::restored_state restored = manager.load(s.messages, sink);
    ASSERT_TRUE(restored.seed.neighbors.has_value());
    const core::pipeline_result resumed =
        core::analyze_seeded(restored.messages, nullptr, std::move(restored.seed), dense_opt);
    const core::pipeline_result dense_reference =
        core::analyze_segments(s.messages, s.segments, dense_opt);
    expect_identical(dense_reference, resumed);
}

}  // namespace
}  // namespace ftc
