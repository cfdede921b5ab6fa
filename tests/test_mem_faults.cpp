// Allocation-fault injection sweep (testing/alloc_fault.hpp): with the Nth
// tracked allocation failing, for every reachable N, the pipeline must
// either complete with output identical to the fault-free run or unwind
// with the typed memory error — never crash, never leak (CI runs this
// binary under ASan/LSan), never leave a torn checkpoint file.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <vector>

#include "ckpt/manager.hpp"
#include "core/pipeline.hpp"
#include "mem/mem.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/alloc_fault.hpp"
#include "testing/temp_path.hpp"
#include "util/check.hpp"
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

scenario make_scenario(std::size_t count = 60) {
    const protocols::trace t = protocols::generate_trace("DNS", count, 7);
    return {segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
}

/// How many tracked allocations one fault-free pipeline run performs.
std::uint64_t allocations_per_run(const scenario& s) {
    const std::uint64_t before = mem::tracked_allocations();
    const core::pipeline_result r = core::analyze_segments(s.messages, s.segments);
    (void)r;
    return mem::tracked_allocations() - before;
}

TEST(AllocFaults, EveryTrackedSiteUnwindsCleanly) {
    const scenario s = make_scenario();
    const core::pipeline_result reference =
        core::analyze_segments(s.messages, s.segments);
    const std::uint64_t per_run = allocations_per_run(s);
    ASSERT_GT(per_run, 0u);

    // Sweep the whole run in strides (every ordinal for the first few, then
    // coarser — the suite must stay fast), plus the exact last allocation.
    std::vector<std::uint64_t> ordinals;
    for (std::uint64_t n = 1; n <= per_run; n += (n < 16 ? 1 : 7)) {
        ordinals.push_back(n);
    }
    ordinals.push_back(per_run);
    ordinals.push_back(per_run + 10);  // beyond the run: must complete

    std::size_t completed = 0;
    std::size_t unwound = 0;
    for (const std::uint64_t nth : ordinals) {
        const std::uint64_t entry_bytes = mem::current_bytes();
        const testing::alloc_fault_injector inject =
            testing::alloc_fault_injector::fail_nth(nth);
        try {
            const core::pipeline_result r =
                core::analyze_segments(s.messages, s.segments);
            // The fault either hit outside this run (fine) or the run
            // completed in spite of it — output must be the reference.
            EXPECT_EQ(r.final_labels.labels, reference.final_labels.labels);
            EXPECT_EQ(r.unique.values, reference.unique.values);
            ++completed;
        } catch (const memory_budget_exceeded_error&) {
            ++unwound;  // the one sanctioned failure mode
        }
        // Whatever happened, every tracked byte must have been released.
        EXPECT_EQ(mem::current_bytes(), entry_bytes) << "leak at ordinal " << nth;
    }
    // The sweep must have exercised both outcomes.
    EXPECT_GT(unwound, 0u);
    EXPECT_GT(completed, 0u);
}

TEST(AllocFaults, HardCeilingUnwindsCleanly) {
    const scenario s = make_scenario();
    mem::reset_peak();
    const core::pipeline_result reference =
        core::analyze_segments(s.messages, s.segments);
    const std::uint64_t peak = mem::peak_bytes();

    // A ceiling below the fault-free peak must fail typed; one above it
    // must not fire at all.
    for (const std::uint64_t ceiling : {peak / 2, peak * 2}) {
        const std::uint64_t entry_bytes = mem::current_bytes();
        const testing::alloc_fault_injector inject =
            testing::alloc_fault_injector::fail_above(ceiling);
        try {
            const core::pipeline_result r =
                core::analyze_segments(s.messages, s.segments);
            EXPECT_GT(ceiling, peak);
            EXPECT_EQ(r.final_labels.labels, reference.final_labels.labels);
        } catch (const memory_budget_exceeded_error& e) {
            EXPECT_LT(ceiling, peak);
            EXPECT_FALSE(e.partial_report().empty());
        }
        EXPECT_EQ(mem::current_bytes(), entry_bytes);
    }
}

TEST(AllocFaults, CheckpointFilesNeverTorn) {
    const scenario s = make_scenario();
    const fs::path dir = testing::temp_path("ftc_test_mem_faults_ckpt");
    const ckpt::options_fingerprint fp = ckpt::fingerprint({}, "true", 7);

    // Crash the checkpointed run at a spread of allocation ordinals; after
    // every attempt the directory must load without tripping strict
    // validation — every file is either absent or complete, never torn.
    for (const std::uint64_t nth : {1ull, 9ull, 33ull, 61ull, 97ull}) {
        fs::remove_all(dir);
        {
            const testing::alloc_fault_injector inject =
                testing::alloc_fault_injector::fail_nth(nth);
            try {
                ckpt::checkpoint_manager manager(dir, fp);
                manager.on_segments(s.segments, every_index(s.messages.size()));
                core::pipeline_options opt;
                opt.observer = &manager;
                core::pipeline_seed seed;
                seed.segments = s.segments;
                const core::pipeline_result r =
                    core::analyze_seeded(s.messages, nullptr, std::move(seed), opt);
                manager.mark_complete();
            } catch (const memory_budget_exceeded_error&) {
                // expected for small ordinals
            }
        }
        diag::error_sink sink(diag::policy::strict);
        ckpt::checkpoint_manager loader(dir, fp);
        EXPECT_NO_THROW({
            const ckpt::restored_state restored = loader.load(s.messages, sink);
            (void)restored;
        }) << "torn checkpoint after fault at ordinal " << nth;
    }
    fs::remove_all(dir);
}

}  // namespace
}  // namespace ftc
