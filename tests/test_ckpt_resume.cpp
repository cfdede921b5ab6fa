// Integration tests of checkpoint save/load/resume (ckpt/manager.hpp): a
// resumed run must be bitwise identical to an uninterrupted one — across
// thread counts — and damaged snapshots must cost exactly their own stage.
#include "ckpt/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "core/pipeline.hpp"
#include "protocols/registry.hpp"
#include "testing/corrupter.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"

namespace ftc::ckpt {
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
    core::pipeline_options options;
    options_fingerprint fp;
};

scenario make_scenario(const char* protocol = "DNS", std::size_t count = 60,
                       std::uint64_t seed = 7) {
    const protocols::trace t = protocols::generate_trace(protocol, count, seed);
    scenario s;
    s.messages = segmentation::message_bytes(t);
    s.segments = segmentation::segments_from_annotations(t);
    s.fp = fingerprint(s.options, "true", seed);
    return s;
}

/// Uninterrupted reference run (no checkpointing).
core::pipeline_result reference_run(const scenario& s) {
    return core::analyze_segments(s.messages, s.segments, s.options);
}

/// Checkpointed run: snapshot every stage into \p dir, like the CLI does.
core::pipeline_result checkpointed_run(const scenario& s, const fs::path& dir) {
    checkpoint_manager manager(dir, s.fp);
    manager.on_segments(s.segments, every_index(s.messages.size()));
    core::pipeline_options opt = s.options;
    opt.observer = &manager;
    core::pipeline_seed seed;
    seed.segments = s.segments;
    core::pipeline_result result = core::analyze_seeded(s.messages, nullptr,
                                                        std::move(seed), opt);
    manager.mark_complete();
    return result;
}

/// Resume from whatever \p dir holds and run to completion.
core::pipeline_result resumed_run(const scenario& s, const fs::path& dir,
                                  diag::error_sink& sink,
                                  std::vector<std::string>* restored_stages = nullptr,
                                  std::size_t threads = 0) {
    checkpoint_manager manager(dir, s.fp);
    restored_state restored = manager.load(s.messages, sink);
    if (restored_stages != nullptr) {
        *restored_stages = restored.stages;
    }
    core::pipeline_options opt = s.options;
    opt.observer = &manager;
    opt.threads = threads;
    core::pipeline_seed seed = std::move(restored.seed);
    const std::vector<byte_vector>& messages =
        restored.has_segments() ? restored.messages : s.messages;
    if (!seed.segments.has_value()) {
        seed.segments = s.segments;
    }
    return core::analyze_seeded(messages, nullptr, std::move(seed), opt);
}

void expect_identical(const core::pipeline_result& a, const core::pipeline_result& b) {
    EXPECT_EQ(a.unique.values, b.unique.values);
    EXPECT_EQ(a.unique.occurrences, b.unique.occurrences);
    EXPECT_EQ(a.clustering.labels.labels, b.clustering.labels.labels);
    EXPECT_EQ(a.clustering.labels.cluster_count, b.clustering.labels.cluster_count);
    // Exact double equality on purpose: resume promises bitwise identity.
    EXPECT_EQ(a.clustering.config.epsilon, b.clustering.config.epsilon);
    EXPECT_EQ(a.clustering.config.min_samples, b.clustering.config.min_samples);
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
    EXPECT_EQ(a.final_labels.cluster_count, b.final_labels.cluster_count);
    EXPECT_EQ(a.refinement.merges.size(), b.refinement.merges.size());
    EXPECT_EQ(a.refinement.splits.size(), b.refinement.splits.size());
}

class CkptResume : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "ftc_ckpt_resume_test";
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(CkptResume, CheckpointedRunMatchesPlainRunAndWritesAllFiles) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);
    const core::pipeline_result observed = checkpointed_run(s, dir_);
    // Observing a run must not change it.
    expect_identical(plain, observed);
    EXPECT_TRUE(fs::exists(dir_ / checkpoint_manager::kSegmentsFile));
    EXPECT_TRUE(fs::exists(dir_ / checkpoint_manager::kMatrixFile));
    EXPECT_TRUE(fs::exists(dir_ / checkpoint_manager::kClusteringFile));
    EXPECT_TRUE(fs::exists(dir_ / checkpoint_manager::kManifestFile));
}

TEST_F(CkptResume, FullResumeIsBitwiseIdentical) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);
    checkpointed_run(s, dir_);

    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored,
              (std::vector<std::string>{"segmentation", "dissimilarity", "clustering"}));
    EXPECT_TRUE(sink.empty());
    expect_identical(plain, resumed);
}

TEST_F(CkptResume, ResumeIsIdenticalAcrossThreadCounts) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);

    // Checkpoint written once, resumed serially and on every hardware
    // thread. Drop the matrix snapshot in a second pass so the recompute
    // also crosses thread counts.
    checkpointed_run(s, dir_);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        diag::error_sink sink(diag::policy::lenient);
        const core::pipeline_result resumed = resumed_run(s, dir_, sink, nullptr, threads);
        expect_identical(plain, resumed);
    }
    fs::remove(dir_ / checkpoint_manager::kMatrixFile);
    {
        diag::error_sink sink(diag::policy::lenient);
        std::vector<std::string> restored;
        const core::pipeline_result resumed =
            resumed_run(s, dir_, sink, &restored, /*threads=*/0);
        EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "clustering"}));
        expect_identical(plain, resumed);
    }
}

TEST_F(CkptResume, CorruptedMatrixFileCostsOnlyThatStage) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);
    checkpointed_run(s, dir_);

    // Mangle matrix.ckpt with the corrupter; the per-section digests must
    // catch it, quarantine the file, and recompute only dissimilarity.
    testing::flip_random_bits_in_file(dir_ / checkpoint_manager::kMatrixFile, 16, 99);

    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "clustering"}));
    ASSERT_EQ(sink.quarantined(), 1u);
    EXPECT_EQ(sink.diagnostics()[0].cat, diag::category::checkpoint);
    expect_identical(plain, resumed);
}

TEST_F(CkptResume, CorruptedCheckpointThrowsUnderStrictSink) {
    const scenario s = make_scenario();
    checkpointed_run(s, dir_);
    testing::flip_random_bits_in_file(dir_ / checkpoint_manager::kClusteringFile, 8, 5);

    checkpoint_manager manager(dir_, s.fp);
    diag::error_sink strict(diag::policy::strict);
    EXPECT_THROW(manager.load(s.messages, strict), parse_error);
}

TEST_F(CkptResume, FingerprintMismatchRestoresNothing) {
    const scenario s = make_scenario();
    checkpointed_run(s, dir_);

    // Same input, different result-shaping options -> different identity.
    scenario other = s;
    other.options.min_segment_length = 3;
    other.fp = fingerprint(other.options, "true", 7);

    checkpoint_manager manager(dir_, other.fp);
    diag::error_sink sink(diag::policy::lenient);
    restored_state restored = manager.load(other.messages, sink);
    EXPECT_TRUE(restored.stages.empty());
    EXPECT_TRUE(restored.seed.empty());
    EXPECT_EQ(sink.quarantined(), 3u);  // all three files rejected
}

TEST_F(CkptResume, EmptyDirectoryRestoresNothingSilently) {
    const scenario s = make_scenario();
    checkpoint_manager manager(dir_, s.fp);
    diag::error_sink sink(diag::policy::lenient);
    restored_state restored = manager.load(s.messages, sink);
    EXPECT_TRUE(restored.stages.empty());
    EXPECT_TRUE(sink.empty());  // a fresh directory is not damage
}

TEST_F(CkptResume, PartialCheckpointSeedsOnlyCompletedStages) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);
    checkpointed_run(s, dir_);
    // Simulate a run killed during clustering: that snapshot never landed.
    fs::remove(dir_ / checkpoint_manager::kClusteringFile);

    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "dissimilarity"}));
    EXPECT_TRUE(sink.empty());
    expect_identical(plain, resumed);
}

TEST_F(CkptResume, ManifestTracksLifecycle) {
    const scenario s = make_scenario();
    checkpointed_run(s, dir_);
    std::ifstream in(dir_ / checkpoint_manager::kManifestFile);
    const std::string manifest{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    EXPECT_NE(manifest.find("\"status\":\"complete\""), std::string::npos) << manifest;
    EXPECT_NE(manifest.find("\"stage\":\"clustering\""), std::string::npos) << manifest;
}

TEST_F(CkptResume, PipelineRecordsWhichMessagesSurvivedSegmentation) {
    // The pipeline segments leniently and hands the survivors' input
    // indices to the manager; resume rebuilds exactly those messages.
    const scenario s = make_scenario();
    std::vector<byte_vector> messages = s.messages;
    messages.insert(messages.begin() + 5, byte_vector{});
    const auto segmenter = segmentation::make_segmenter("NEMESYS");
    diag::error_sink sink(diag::policy::lenient);
    core::pipeline_result fresh;
    {
        checkpoint_manager manager(dir_, s.fp);
        core::pipeline_options opt = s.options;
        opt.observer = &manager;
        fresh = core::analyze_seeded(messages, segmenter.get(), {}, opt, sink);
    }
    EXPECT_EQ(sink.count(diag::category::segmentation), 1u);
    std::vector<std::size_t> expected(messages.size() - 1);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::for_each(expected.begin() + 5, expected.end(), [](std::size_t& i) { ++i; });
    EXPECT_EQ(fresh.surviving, expected);

    checkpoint_manager manager(dir_, s.fp);
    diag::error_sink resume_sink(diag::policy::lenient);
    restored_state restored = manager.load(messages, resume_sink);
    ASSERT_TRUE(restored.has_segments());
    EXPECT_EQ(restored.messages, s.messages);
    const core::pipeline_result resumed =
        core::analyze_seeded(restored.messages, nullptr, std::move(restored.seed), s.options);
    expect_identical(fresh, resumed);
}

}  // namespace
}  // namespace ftc::ckpt
