// Tests of graceful degradation under memory pressure (DESIGN.md §11):
// every rung of the ladder — weighted dedup, the sparse engine in place of
// a matrix that would not fit, the typed out-of-budget exit — must leave
// clustering output bitwise identical to the unpressured run, or fail with
// a typed error carrying partial progress. Checkpoint snapshots never
// fail a run that fits without them. Never a crash, never a different
// answer.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "dissim/matrix.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/temp_path.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"
#include "util/rng.hpp"

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

scenario make_scenario(const char* protocol = "DNS", std::size_t count = 80) {
    const protocols::trace t = protocols::generate_trace(protocol, count, 7);
    return {segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
}

/// A trace with heavy value duplication: every message is a run of 2-byte
/// segments drawn from a small pool, so the occurrence lists dwarf both the
/// value storage and the (tiny) matrix — the shape that trips rung 1.
scenario make_duplicated_scenario(std::size_t message_count = 100,
                                  std::size_t segments_per_message = 20,
                                  std::size_t pool = 30) {
    rng rng(11);
    scenario s;
    for (std::size_t m = 0; m < message_count; ++m) {
        byte_vector msg;
        std::vector<segmentation::segment> segs;
        for (std::size_t k = 0; k < segments_per_message; ++k) {
            const auto value = static_cast<std::uint16_t>(rng() % pool * 2654435761u);
            segs.push_back({m, msg.size(), 2});
            msg.push_back(static_cast<std::uint8_t>(value >> 8));
            msg.push_back(static_cast<std::uint8_t>(value));
        }
        s.messages.push_back(std::move(msg));
        s.segments.push_back(std::move(segs));
    }
    return s;
}

/// A trace that is almost all *unique* values: the n×n matrix dwarfs every
/// other allocation, giving the budget tests wide, deterministic margins.
scenario make_unique_scenario(std::size_t message_count = 200,
                              std::size_t segments_per_message = 2) {
    rng rng(13);
    scenario s;
    for (std::size_t m = 0; m < message_count; ++m) {
        byte_vector msg;
        std::vector<segmentation::segment> segs;
        for (std::size_t k = 0; k < segments_per_message; ++k) {
            const std::size_t len = 4 + (rng() % 5);
            segs.push_back({m, msg.size(), len});
            for (std::size_t b = 0; b < len; ++b) {
                msg.push_back(static_cast<std::uint8_t>(rng()));
            }
        }
        s.messages.push_back(std::move(msg));
        s.segments.push_back(std::move(segs));
    }
    return s;
}

/// What "identical clustering" means, detached from the pipeline_result so
/// the baseline's tracked storage can be freed before the pressured run.
struct labels_snapshot {
    std::vector<byte_vector> values;
    std::vector<std::size_t> occurrence_counts;
    double epsilon = 0.0;
    std::size_t min_samples = 0;
    std::vector<int> dbscan_labels;
    std::vector<int> final_labels;
    std::size_t cluster_count = 0;
    std::uint64_t peak_bytes = 0;  ///< tracked peak of the producing run
};

labels_snapshot snapshot_run(const scenario& s, const core::pipeline_options& opt = {}) {
    mem::reset_peak();
    const core::pipeline_result r = core::analyze_segments(s.messages, s.segments, opt);
    labels_snapshot snap;
    snap.values = r.unique.values;
    for (std::size_t i = 0; i < r.unique.size(); ++i) {
        snap.occurrence_counts.push_back(r.unique.occurrence_count(i));
    }
    snap.epsilon = r.clustering.config.epsilon;
    snap.min_samples = r.clustering.config.min_samples;
    snap.dbscan_labels = r.clustering.labels.labels;
    snap.final_labels = r.final_labels.labels;
    snap.cluster_count = r.final_labels.cluster_count;
    snap.peak_bytes = mem::peak_bytes();
    return snap;
}

void expect_identical(const labels_snapshot& a, const labels_snapshot& b) {
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.occurrence_counts, b.occurrence_counts);
    EXPECT_EQ(a.epsilon, b.epsilon);
    EXPECT_EQ(a.min_samples, b.min_samples);
    EXPECT_EQ(a.dbscan_labels, b.dbscan_labels);
    EXPECT_EQ(a.final_labels, b.final_labels);
    EXPECT_EQ(a.cluster_count, b.cluster_count);
}

// --- Rung 1: weighted dedup ------------------------------------------------

TEST(CondenseWeighted, MatchesFullCondenseValuesAndCounts) {
    const scenario s = make_scenario();
    const dissim::unique_segments full = dissim::condense(s.messages, s.segments);
    const dissim::unique_segments weighted =
        dissim::condense_weighted(s.messages, s.segments);

    ASSERT_TRUE(weighted.occurrences_elided);
    ASSERT_FALSE(full.occurrences_elided);
    // Identical values in the identical first-occurrence order: everything
    // downstream (matrix, curves, labels) is bitwise unchanged.
    ASSERT_EQ(weighted.values, full.values);
    EXPECT_TRUE(weighted.occurrences.empty());
    ASSERT_EQ(weighted.multiplicities.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(weighted.occurrence_count(i), full.occurrence_count(i)) << "value " << i;
    }
    EXPECT_EQ(weighted.total_occurrences(), full.total_occurrences());
    EXPECT_EQ(weighted.short_segments, full.short_segments);
}

TEST(CondenseWeighted, UsesLessTrackedMemoryThanFull) {
    const scenario s = make_duplicated_scenario();
    const dissim::unique_segments full = dissim::condense(s.messages, s.segments);
    const dissim::unique_segments weighted =
        dissim::condense_weighted(s.messages, s.segments);
    EXPECT_LT(weighted.footprint.bytes(), full.footprint.bytes());
}

// --- The ladder end to end -------------------------------------------------

/// A budget the dense matrix cannot fit under but the sparse engine can: a
/// quarter matrix below the unpressured (dense) peak. The capped neighbor
/// lists are O(n·ln n), far below the matrix, so rung 2 has room to spare.
std::size_t cap_below_dense(const labels_snapshot& baseline) {
    const std::uint64_t n = baseline.values.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    EXPECT_GT(baseline.peak_bytes, dense_bytes);
    return static_cast<std::size_t>(baseline.peak_bytes - dense_bytes / 4);
}

double counter(const obs::scoped_recorder& recorder, const char* name) {
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0.0 : it->second;
}

/// Checkpoint a run of \p s under \p opt into \p dir (segments seeded, as
/// the CLI's segmentation snapshot would be) and return its final labels.
std::vector<int> checkpointed_run(const scenario& s, const core::pipeline_options& opt,
                                  const fs::path& dir, const ckpt::options_fingerprint& fp) {
    ckpt::checkpoint_manager manager(dir, fp);
    manager.on_segments(s.segments, every_index(s.messages.size()));
    core::pipeline_options observed = opt;
    observed.observer = &manager;
    core::pipeline_seed seed;
    seed.segments = s.segments;
    const core::pipeline_result r =
        core::analyze_seeded(s.messages, nullptr, std::move(seed), observed);
    manager.mark_complete();
    return r.final_labels.labels;
}

TEST(MemDegrade, SparseRungPreservesClustering) {
    const scenario s = make_scenario("DNS", 100);
    const labels_snapshot baseline = snapshot_run(s);
    core::pipeline_options opt;
    opt.max_memory = cap_below_dense(baseline);
    const obs::scoped_recorder recorder;
    const labels_snapshot degraded = snapshot_run(s, opt);

    expect_identical(baseline, degraded);
    EXPECT_LE(degraded.peak_bytes, opt.max_memory);
    EXPECT_EQ(counter(recorder, "mem.degrade.sparse_total"), 1.0);
    EXPECT_EQ(counter(recorder, "dissim.sparse.builds_total"), 1.0);
}

TEST(MemDegrade, DedupRungPreservesClusteringBitwise) {
    // Occurrence lists dominate this trace (2000 concrete segments, ~30
    // unique values), so a cap below their footprint — but far above the
    // tiny matrix — forces exactly rung 1.
    const scenario s = make_duplicated_scenario();
    const std::uint64_t occurrence_bytes =
        100 * 20 * sizeof(segmentation::segment);  // what the full form would charge
    const labels_snapshot baseline = snapshot_run(s);
    ASSERT_GT(baseline.peak_bytes, occurrence_bytes);

    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes - occurrence_bytes / 2);
    mem::reset_peak();
    const core::pipeline_result degraded = core::analyze_segments(s.messages, s.segments, opt);
    EXPECT_TRUE(degraded.unique.occurrences_elided);
    labels_snapshot snap;
    snap.values = degraded.unique.values;
    for (std::size_t i = 0; i < degraded.unique.size(); ++i) {
        snap.occurrence_counts.push_back(degraded.unique.occurrence_count(i));
    }
    snap.epsilon = degraded.clustering.config.epsilon;
    snap.min_samples = degraded.clustering.config.min_samples;
    snap.dbscan_labels = degraded.clustering.labels.labels;
    snap.final_labels = degraded.final_labels.labels;
    snap.cluster_count = degraded.final_labels.cluster_count;
    snap.peak_bytes = baseline.peak_bytes;  // not under test here
    expect_identical(baseline, snap);
}

TEST(MemDegrade, ImpossibleBudgetFailsWithTypedPartialProgress) {
    const scenario s = make_scenario("DNS", 60);
    core::pipeline_options opt;
    opt.max_memory = 64;  // nothing real fits under 64 bytes
    try {
        core::analyze_segments(s.messages, s.segments, opt);
        FAIL() << "expected memory_budget_exceeded_error";
    } catch (const memory_budget_exceeded_error& e) {
        EXPECT_FALSE(e.partial_report().empty());
    }
    EXPECT_EQ(mem::governor::active(), nullptr);  // unwound cleanly
}

TEST(MemDegrade, PressuredCheckpointResumesFromNeighborLists) {
    const scenario s = make_unique_scenario();
    const fs::path dir = testing::temp_path("ftc_test_mem_degrade_neighbors");
    fs::remove_all(dir);
    const labels_snapshot baseline = snapshot_run(s);

    core::pipeline_options opt;
    opt.max_memory = cap_below_dense(baseline);
    const ckpt::options_fingerprint fp = ckpt::fingerprint(opt, "true", 7);
    EXPECT_EQ(checkpointed_run(s, opt, dir, fp), baseline.final_labels);
    // The pressured run built the sparse engine, so it wrote its
    // dissimilarity snapshot: the neighbor lists.
    ASSERT_TRUE(fs::exists(dir / ckpt::checkpoint_manager::kNeighborsFile));
    // Make the resume cluster again from the restored lists.
    fs::remove(dir / ckpt::checkpoint_manager::kClusteringFile);

    diag::error_sink sink(diag::policy::strict);
    ckpt::checkpoint_manager manager(dir, fp);
    const mem::governor governor(opt.max_memory);
    ckpt::restored_state restored = manager.load(s.messages, sink);
    ASSERT_TRUE(restored.seed.neighbors.has_value());
    const core::pipeline_result resumed = core::analyze_seeded(
        restored.messages, nullptr, std::move(restored.seed), opt);
    EXPECT_EQ(resumed.final_labels.labels, baseline.final_labels);
    EXPECT_EQ(resumed.final_labels.cluster_count, baseline.cluster_count);
    EXPECT_EQ(resumed.clustering.config.epsilon, baseline.epsilon);
    EXPECT_EQ(resumed.clustering.config.min_samples, baseline.min_samples);
    fs::remove_all(dir);
}

TEST(MemDegrade, SnapshotThatWouldNotFitIsSkippedNotFatal) {
    // NEMESYS on DNS 4000 builds the sparse engine (4,627 unique segments).
    // Capped at the run's own unobserved peak plus 4 KB, a checkpointed run
    // has room for its neighbor lists but not for the clustering snapshot's
    // file image, written when the run's tracked bytes are near that peak.
    // The snapshot must step aside instead of failing the run.
    const protocols::trace t = protocols::generate_trace("DNS", 4000, 7);
    scenario s;
    s.messages = segmentation::message_bytes(t);
    s.segments = segmentation::make_segmenter("NEMESYS")->run(s.messages, deadline{});
    const fs::path dir = testing::temp_path("ftc_test_mem_degrade_skip_save");
    fs::remove_all(dir);
    const labels_snapshot baseline = snapshot_run(s);

    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes + 4096);
    const ckpt::options_fingerprint fp = ckpt::fingerprint(opt, "true", 7);
    {
        const obs::scoped_recorder recorder;
        EXPECT_EQ(checkpointed_run(s, opt, dir, fp), baseline.final_labels);
        EXPECT_EQ(counter(recorder, "ckpt.snapshots_skipped_total"), 1.0);
        EXPECT_EQ(counter(recorder, "mem.degrade.sparse_total"), 0.0);
        EXPECT_EQ(counter(recorder, "dissim.sparse.builds_total"), 1.0);
    }
    EXPECT_TRUE(fs::exists(dir / ckpt::checkpoint_manager::kNeighborsFile));
    EXPECT_FALSE(fs::exists(dir / ckpt::checkpoint_manager::kClusteringFile));

    // The resume restores what was written and recomputes only the
    // skipped stage.
    diag::error_sink sink(diag::policy::strict);
    ckpt::checkpoint_manager manager(dir, fp);
    const mem::governor governor(opt.max_memory);
    ckpt::restored_state restored = manager.load(s.messages, sink);
    EXPECT_EQ(restored.stages, (std::vector<std::string>{"segmentation", "dissimilarity"}));
    const core::pipeline_result resumed = core::analyze_seeded(
        restored.messages, nullptr, std::move(restored.seed), opt);
    EXPECT_EQ(resumed.final_labels.labels, baseline.final_labels);
    EXPECT_EQ(resumed.final_labels.cluster_count, baseline.cluster_count);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace ftc
