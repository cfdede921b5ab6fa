// Integration tests of checkpoint save/load/resume (ckpt/manager.hpp): a
// resumed run must be bitwise identical to an uninterrupted one — across
// thread counts — and damaged snapshots must cost exactly their own stage.
#include "ckpt/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "core/pipeline.hpp"
#include "dissim/sparse.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "testing/corrupter.hpp"
#include "testing/temp_path.hpp"
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

/// Cap \p s a quarter matrix below its plain run's tracked peak (the
/// PipelineSparseCkpt recipe): a checkpointed run of it then builds the
/// sparse engine and writes neighbors.ckpt. Returns the plain run.
core::pipeline_result pressure(scenario& s) {
    mem::reset_peak();
    core::pipeline_result plain = reference_run(s);
    const std::uint64_t n = plain.unique.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    EXPECT_GT(mem::peak_bytes(), dense_bytes);
    s.options.max_memory = static_cast<std::size_t>(mem::peak_bytes() - dense_bytes / 4);
    return plain;
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
        dir_ = testing::temp_path("ftc_ckpt_resume_test");
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
    // A dense run persists no dissimilarity snapshot: a resume rebuilds
    // its matrix.
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
        files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{checkpoint_manager::kClusteringFile,
                                               checkpoint_manager::kManifestFile,
                                               checkpoint_manager::kSegmentsFile}));
}

TEST_F(CkptResume, CheckpointingADenseRunKeepsThePlainPeak) {
    // Checkpoints must not add a matrix-sized buffer to a dense run: its
    // tracked peak stays within 1 % of the plain run's.
    const scenario s = make_scenario("NTP", 600);
    std::uint64_t plain_peak = 0;
    {
        mem::reset_peak();
        const core::pipeline_result plain = reference_run(s);
        plain_peak = mem::peak_bytes();
    }
    std::uint64_t observed_peak = 0;
    {
        mem::reset_peak();
        const core::pipeline_result observed = checkpointed_run(s, dir_);
        observed_peak = mem::peak_bytes();
    }
    ASSERT_FALSE(fs::exists(dir_ / checkpoint_manager::kNeighborsFile));  // dense
    EXPECT_LE(observed_peak, plain_peak + plain_peak / 100)
        << "plain " << plain_peak << " B, checkpointed " << observed_peak << " B";
}

TEST_F(CkptResume, FullResumeIsBitwiseIdentical) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);
    checkpointed_run(s, dir_);

    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "clustering"}));
    EXPECT_TRUE(sink.empty());
    expect_identical(plain, resumed);
}

TEST_F(CkptResume, FullResumeExtractsNoKnnCurves) {
    // A resume that restored the clustering runs no epsilon sweep, so it
    // rebuilds the dense matrix for refinement without scanning it for the
    // k-NN curves nothing would read.
    const scenario s = make_scenario();
    checkpointed_run(s, dir_);
    const obs::scoped_recorder recorder;
    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    resumed_run(s, dir_, sink, &restored);
    ASSERT_EQ(restored, (std::vector<std::string>{"segmentation", "clustering"}));
    std::vector<std::string> spans;
    for (const obs::span_record& span : recorder.rec().trace().spans) {
        spans.push_back(span.name);
    }
    EXPECT_NE(std::find(spans.begin(), spans.end(), "dissimilarity"), spans.end());
    EXPECT_EQ(std::find(spans.begin(), spans.end(), "dissim.kth_nn_many"), spans.end());
}

TEST_F(CkptResume, ResumeIsIdenticalAcrossThreadCounts) {
    const scenario s = make_scenario();
    const core::pipeline_result plain = reference_run(s);

    // Checkpoint written once, resumed serially and on every hardware
    // thread; the matrix each resume rebuilds crosses thread counts too.
    checkpointed_run(s, dir_);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        diag::error_sink sink(diag::policy::lenient);
        const core::pipeline_result resumed = resumed_run(s, dir_, sink, nullptr, threads);
        expect_identical(plain, resumed);
    }
}

TEST_F(CkptResume, CorruptedNeighborsFileCostsOnlyThatStage) {
    scenario s = make_scenario("DNS", 400);
    const core::pipeline_result plain = pressure(s);
    checkpointed_run(s, dir_);
    ASSERT_TRUE(fs::exists(dir_ / checkpoint_manager::kNeighborsFile));

    // Mangle neighbors.ckpt with the corrupter; the per-section digests
    // must catch it, quarantine the file, and recompute only dissimilarity.
    testing::flip_random_bits_in_file(dir_ / checkpoint_manager::kNeighborsFile, 16, 99);

    diag::error_sink sink(diag::policy::lenient);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "clustering"}));
    ASSERT_EQ(sink.quarantined(), 1u);
    EXPECT_EQ(sink.diagnostics()[0].cat, diag::category::checkpoint);
    expect_identical(plain, resumed);
}

TEST_F(CkptResume, NeighborsFileWithRetiredKnnSectionStillRestores) {
    // Earlier builds appended the k-NN curves to neighbors.ckpt as section
    // 5. Loaders find sections by id, so such a file still restores.
    scenario s = make_scenario("DNS", 400);
    const core::pipeline_result plain = pressure(s);
    checkpointed_run(s, dir_);
    const fs::path path = dir_ / checkpoint_manager::kNeighborsFile;
    std::vector<section> sections;
    {
        std::ifstream in(path, std::ios::binary);
        const byte_vector file{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
        sections = decode_sections(file);
    }
    ASSERT_EQ(sections.size(), 3u);  // fingerprint, unique, neighbors
    {
        // The retired payload in its old layout: curve count, then per
        // curve its length and f64 bit patterns. Scoped, so its tracked
        // storage is gone before the capped resume.
        const dissim::unique_segments unique = decode_unique(sections[1].payload);
        const dissim::sparse_neighborhood source(unique.values,
                                                 decode_neighbors(sections[2].payload));
        byte_vector knn;
        const auto curves = source.kth_nn_many(cluster::knn_k_max(unique.size()));
        put_u64_le(knn, curves.size());
        for (const std::vector<double>& curve : curves) {
            put_u64_le(knn, curve.size());
            for (const double d : curve) {
                put_u64_le(knn, std::bit_cast<std::uint64_t>(d));
            }
        }
        sections.push_back({5, std::move(knn)});
        const byte_vector file = encode_sections(sections);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(file.data()),
                  static_cast<std::streamsize>(file.size()));
    }
    fs::remove(dir_ / checkpoint_manager::kClusteringFile);

    diag::error_sink sink(diag::policy::strict);
    std::vector<std::string> restored;
    const core::pipeline_result resumed = resumed_run(s, dir_, sink, &restored);
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation", "dissimilarity"}));
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
    EXPECT_EQ(sink.quarantined(), 2u);  // segments and clustering rejected
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
    EXPECT_EQ(restored, (std::vector<std::string>{"segmentation"}));
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
