// Tests of graceful interruption: the resource-budget deadline or a stop
// request tripping mid-pipeline must leave a consistent partial-progress
// report, an interrupted checkpoint manifest, and obs counters that all
// tell the same story — then resume must complete bitwise identically.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <string>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/interrupt.hpp"

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

scenario make_scenario() {
    // Large enough that the dissimilarity matrix dominates the runtime, so
    // a nano-deadline reliably trips inside that stage's parallel fan-out.
    const protocols::trace t = protocols::generate_trace("DHCP", 120, 11);
    return {segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Extract "segments N" / "bytes N" numbers from a partial report.
std::uint64_t report_number(const std::string& report, const std::string& key) {
    const std::size_t at = report.find(key + " ");
    if (at == std::string::npos) {
        return ~0ull;
    }
    return std::stoull(report.substr(at + key.size() + 1));
}

TEST(CkptInterrupt, DeadlineMidMatrixParallelReportsConsistentProgress) {
    const scenario s = make_scenario();
    const fs::path dir = fs::temp_directory_path() / "ftc_ckpt_interrupt_deadline";
    fs::remove_all(dir);

    obs::scoped_recorder recorder;
    ckpt::checkpoint_manager manager(dir, {1, 2});
    manager.on_segments(s.segments, every_index(s.messages.size()));

    core::pipeline_options opt;
    opt.budget_seconds = 1e-6;  // trips during the matrix fan-out
    opt.threads = 0;            // parallel mode: lanes rethrow via the pool
    opt.observer = &manager;
    core::pipeline_seed seed;
    seed.segments = s.segments;

    std::size_t total_segments = 0;
    for (const auto& per_message : s.segments) {
        total_segments += per_message.size();
    }
    std::size_t total_bytes = 0;
    for (const auto& m : s.messages) {
        total_bytes += m.size();
    }

    try {
        core::analyze_seeded(s.messages, nullptr, std::move(seed), opt);
        FAIL() << "expected budget_exceeded_error";
    } catch (const budget_exceeded_error& e) {
        // The report's numbers and the obs counters come from the same
        // charge events — they must agree exactly.
        const std::string report = e.partial_report();
        EXPECT_EQ(report_number(report, "segments"), total_segments) << report;
        EXPECT_EQ(report_number(report, "bytes"), total_bytes) << report;
        EXPECT_NE(report.find("reached stage dissimilarity"), std::string::npos) << report;

        const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
        EXPECT_EQ(m.counters.at("budget.segments"), static_cast<double>(total_segments));
        EXPECT_EQ(m.counters.at("budget.bytes"), static_cast<double>(total_bytes));
        // The unique-segment gauge was published before the matrix started
        // and again by the unwinding path; both agree with the report.
        if (report.find("unique segments") != std::string::npos) {
            EXPECT_EQ(m.gauges.at("pipeline.unique_segments"),
                      static_cast<double>(report_number(report, "with")));
        }
    }

    // The interrupted manifest recorded the stage the trip lost; the
    // segmentation snapshot (completed before the trip) is still there.
    const std::string manifest = slurp(dir / ckpt::checkpoint_manager::kManifestFile);
    EXPECT_NE(manifest.find("\"status\":\"interrupted\""), std::string::npos) << manifest;
    EXPECT_NE(manifest.find("\"stage\":\"dissimilarity\""), std::string::npos) << manifest;
    EXPECT_TRUE(fs::exists(dir / ckpt::checkpoint_manager::kSegmentsFile));
    EXPECT_FALSE(fs::exists(dir / ckpt::checkpoint_manager::kMatrixFile));
    fs::remove_all(dir);
}

TEST(CkptInterrupt, StopRequestRaisesInterruptedErrorAndResumeCompletes) {
    const scenario s = make_scenario();
    const fs::path dir = fs::temp_directory_path() / "ftc_ckpt_interrupt_stop";
    fs::remove_all(dir);

    const core::pipeline_result plain = core::analyze_segments(s.messages, s.segments, {});

    // Interrupted checkpointed run: the stop request surfaces as
    // interrupted_error (not a budget trip) from the first check point.
    {
        scoped_interrupt_clear guard;
        ckpt::checkpoint_manager manager(dir, {1, 2});
        manager.on_segments(s.segments, every_index(s.messages.size()));
        core::pipeline_options opt;
        opt.observer = &manager;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        request_interrupt(15);
        EXPECT_THROW(core::analyze_seeded(s.messages, nullptr, std::move(seed), opt),
                     interrupted_error);
        const std::string manifest = slurp(dir / ckpt::checkpoint_manager::kManifestFile);
        EXPECT_NE(manifest.find("\"status\":\"interrupted\""), std::string::npos)
            << manifest;
    }

    // Flag cleared: resume from the surviving snapshots and finish; the
    // result matches the never-interrupted run exactly.
    {
        ckpt::checkpoint_manager manager(dir, {1, 2});
        diag::error_sink sink(diag::policy::lenient);
        ckpt::restored_state restored = manager.load(s.messages, sink);
        ASSERT_TRUE(restored.has_segments());
        core::pipeline_options opt;
        opt.observer = &manager;
        const core::pipeline_result resumed = core::analyze_seeded(
            restored.messages, nullptr, std::move(restored.seed), opt);
        manager.mark_complete();
        EXPECT_EQ(plain.final_labels.labels, resumed.final_labels.labels);
        EXPECT_EQ(plain.final_labels.cluster_count, resumed.final_labels.cluster_count);
        EXPECT_EQ(plain.clustering.config.epsilon, resumed.clustering.config.epsilon);
        const std::string manifest = slurp(dir / ckpt::checkpoint_manager::kManifestFile);
        EXPECT_NE(manifest.find("\"status\":\"complete\""), std::string::npos) << manifest;
    }
    fs::remove_all(dir);
}

/// Almost-all-unique segment values: the dense n×n matrix dominates the
/// run's peak, so a max_memory just below that peak deterministically
/// makes the run build the sparse engine instead (the mem-degrade recipe).
scenario make_pressured_scenario() {
    std::minstd_rand rng(13);
    scenario s;
    for (std::size_t m = 0; m < 200; ++m) {
        byte_vector msg;
        std::vector<segmentation::segment> segs;
        for (std::size_t k = 0; k < 2; ++k) {
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

void sigterm_to_interrupt(int sig) { request_interrupt(sig); }

/// Delegates every announcement to the checkpoint manager, but delivers a
/// real SIGTERM right after the dissimilarity snapshot reaches disk — the
/// kill arrives between a landed file and the next stage's, exactly the
/// window where a torn write or a half-updated manifest would poison the
/// checkpoint.
class sigterm_after_snapshot final : public core::stage_observer {
public:
    explicit sigterm_after_snapshot(core::stage_observer& inner) : inner_(inner) {}

    void on_segments(const segmentation::message_segments& segments,
                     const std::vector<std::size_t>& surviving) override {
        inner_.on_segments(segments, surviving);
    }
    void on_matrix(const dissim::unique_segments& unique,
                   const dissim::dissimilarity_matrix& matrix,
                   const std::vector<std::vector<double>>& knn_curves) override {
        inner_.on_matrix(unique, matrix, knn_curves);
        landed();
    }
    void on_neighbors(const dissim::unique_segments& unique,
                      const dissim::capped_neighbors& neighbors,
                      const std::vector<std::vector<double>>& knn_curves) override {
        inner_.on_neighbors(unique, neighbors, knn_curves);
        landed();
    }
    void on_clustering(const cluster::auto_cluster_result& clustering) override {
        inner_.on_clustering(clustering);
    }
    void on_interrupted(const char* stage) override { inner_.on_interrupted(stage); }

    int snapshots = 0;

private:
    void landed() {
        if (++snapshots == 1) {
            std::raise(SIGTERM);
        }
    }

    core::stage_observer& inner_;
};

TEST(CkptInterrupt, SigtermAfterSnapshotLandsLeavesNoTornFiles) {
    const scenario s = make_pressured_scenario();
    const fs::path dir = fs::temp_directory_path() / "ftc_ckpt_interrupt_sigterm_snapshot";
    fs::remove_all(dir);

    // Baseline: peak (to size the pressure) and the reference labels.
    mem::reset_peak();
    const core::pipeline_result plain = core::analyze_segments(s.messages, s.segments, {});
    const std::uint64_t peak = mem::peak_bytes();
    const std::uint64_t n = plain.unique.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    ASSERT_GT(peak, dense_bytes);

    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(peak - dense_bytes / 4);
    const ckpt::options_fingerprint fp = ckpt::fingerprint(opt, "true", 7);

    // SIGTERM lands via the CLI's own handler contract: the signal sets the
    // interrupt flag, and the run unwinds at the next check point.
    using handler = void (*)(int);
    const handler previous = std::signal(SIGTERM, sigterm_to_interrupt);
    ASSERT_NE(previous, SIG_ERR);
    int snapshots_before_signal = 0;
    {
        scoped_interrupt_clear guard;
        ckpt::checkpoint_manager manager(dir, fp);
        manager.on_segments(s.segments, every_index(s.messages.size()));
        sigterm_after_snapshot killer(manager);
        core::pipeline_options observed = opt;
        observed.observer = &killer;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        EXPECT_THROW(core::analyze_seeded(s.messages, nullptr, std::move(seed), observed),
                     interrupted_error);
        snapshots_before_signal = killer.snapshots;
        EXPECT_EQ(interrupt_signal(), SIGTERM);
    }
    std::signal(SIGTERM, previous);
    // The signal really did land right after the pressured run's snapshot.
    ASSERT_EQ(snapshots_before_signal, 1);
    ASSERT_TRUE(fs::exists(dir / ckpt::checkpoint_manager::kNeighborsFile));

    // Invariant #1: every file in the checkpoint dir is complete or absent
    // — atomic_write_file's temp files never survive the unwind.
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
    const std::string manifest = slurp(dir / ckpt::checkpoint_manager::kManifestFile);
    EXPECT_NE(manifest.find("\"status\":\"interrupted\""), std::string::npos) << manifest;

    // Invariant #2: a strict-policy load accepts everything that survived —
    // nothing on disk is torn, half-renamed, or internally inconsistent.
    diag::error_sink strict(diag::policy::strict);
    ckpt::checkpoint_manager manager(dir, fp);
    ckpt::restored_state restored = manager.load(s.messages, strict);
    ASSERT_TRUE(restored.has_segments());
    EXPECT_TRUE(restored.seed.neighbors.has_value());

    // Invariant #3: the flag is cleared, and resuming from the survivors
    // reproduces the uninterrupted run exactly.
    const core::pipeline_result resumed = core::analyze_seeded(
        restored.messages, nullptr, std::move(restored.seed), opt);
    manager.mark_complete();
    EXPECT_EQ(plain.final_labels.labels, resumed.final_labels.labels);
    EXPECT_EQ(plain.final_labels.cluster_count, resumed.final_labels.cluster_count);
    fs::remove_all(dir);
}

TEST(CkptInterrupt, InterruptCounterPublishedOnStopRequest) {
    scoped_interrupt_clear guard;
    obs::scoped_recorder recorder;
    resource_budget budget;
    request_interrupt();
    EXPECT_THROW(budget.check("stage"), interrupted_error);
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    EXPECT_EQ(m.counters.at("budget.interrupted_total"), 1.0);
}

}  // namespace
}  // namespace ftc
