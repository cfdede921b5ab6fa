// Unit tests for the tracked-allocation subsystem (mem/mem.hpp): always-on
// accounting, the scoped governor, charge RAII semantics, the tracking
// allocator, and deterministic allocation-fault plans.
#include "mem/mem.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "testing/alloc_fault.hpp"
#include "util/error.hpp"

namespace ftc::mem {
namespace {

/// Every test works in deltas from the entry footprint: accounting is
/// process-global and other fixtures may leave tracked storage alive.
struct baseline {
    std::uint64_t bytes = current_bytes();
};

TEST(MemTracker, ChargeAndReleaseMoveTheCounters) {
    const baseline base;
    on_charge(1000, "test");
    EXPECT_EQ(current_bytes(), base.bytes + 1000);
    EXPECT_GE(peak_bytes(), base.bytes + 1000);
    on_release(1000);
    EXPECT_EQ(current_bytes(), base.bytes);
}

TEST(MemTracker, ReleaseSaturatesAtZero) {
    const baseline base;
    on_release(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(current_bytes(), 0u);
    // Restore the entry footprint so later tests' deltas stay valid.
    if (base.bytes > 0) {
        on_charge(base.bytes, "test.restore");
    }
}

TEST(MemTracker, ResetPeakDropsToCurrent) {
    on_charge(4096, "test");
    on_release(4096);
    reset_peak();
    EXPECT_EQ(peak_bytes(), current_bytes());
}

TEST(MemTracker, TrackedAllocationsCounts) {
    const std::uint64_t before = tracked_allocations();
    on_charge(1, "test");
    on_release(1);
    EXPECT_GT(tracked_allocations(), before);
}

TEST(MemCharge, RaiiChargesAndReleases) {
    const baseline base;
    {
        const charge c(512, "test");
        EXPECT_EQ(c.bytes(), 512u);
        EXPECT_EQ(current_bytes(), base.bytes + 512);
    }
    EXPECT_EQ(current_bytes(), base.bytes);
}

TEST(MemCharge, CopyRecharges) {
    const baseline base;
    const charge a(100, "test");
    {
        const charge b(a);  // NOLINT(performance-unnecessary-copy-initialization)
        EXPECT_EQ(current_bytes(), base.bytes + 200);
    }
    EXPECT_EQ(current_bytes(), base.bytes + 100);
}

TEST(MemCharge, MoveTransfers) {
    const baseline base;
    charge a(100, "test");
    const charge b(std::move(a));
    EXPECT_EQ(current_bytes(), base.bytes + 100);
    EXPECT_EQ(a.bytes(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.bytes(), 100u);
}

TEST(MemCharge, ReleaseIsIdempotent) {
    const baseline base;
    charge c(100, "test");
    c.release();
    c.release();
    EXPECT_EQ(current_bytes(), base.bytes);
}

TEST(MemCharge, ResizeChargesOnlyTheDifference) {
    const baseline base;
    charge c;
    c.resize(100, "test");
    EXPECT_EQ(current_bytes(), base.bytes + 100);
    mem::reset_peak();
    // Growing to 150 under a 160-byte headroom fits; reassigning a fresh
    // 150-byte charge would briefly hold 250 and trip the governor.
    {
        const governor g(base.bytes + 160);
        EXPECT_NO_THROW(c.resize(150, "test"));
        EXPECT_THROW(c = charge(150, "test"), memory_budget_exceeded_error);
        EXPECT_THROW(c.resize(200, "test"), memory_budget_exceeded_error);
    }
    EXPECT_EQ(c.bytes(), 150u);
    EXPECT_EQ(peak_bytes(), base.bytes + 150);
    c.resize(30, "test");
    EXPECT_EQ(current_bytes(), base.bytes + 30);
    c.release();
    EXPECT_EQ(current_bytes(), base.bytes);
}

TEST(MemVector, AllocationsAreTracked) {
    const baseline base;
    {
        mem::vector<float> v;
        v.assign(1024, 0.0f);
        EXPECT_GE(current_bytes(), base.bytes + 1024 * sizeof(float));
    }
    EXPECT_EQ(current_bytes(), base.bytes);
}

TEST(Governor, LimitThrowsTypedError) {
    const governor g(current_bytes() + 100);
    EXPECT_NO_THROW({
        const charge ok(50, "test");
    });
    EXPECT_THROW(
        {
            const charge too_big(200, "test");
        },
        memory_budget_exceeded_error);
    // A tripped charge must not leak into the books.
    EXPECT_LE(current_bytes(), g.limit());
}

TEST(Governor, IsABudgetExceededError) {
    const governor g(current_bytes() + 1);
    // Callers with generic partial-progress handling catch the base type.
    EXPECT_THROW(
        {
            const charge c(100, "test");
        },
        budget_exceeded_error);
}

TEST(Governor, NestsInnermostWins) {
    EXPECT_EQ(governor::active(), nullptr);
    const governor outer(current_bytes() + 1000000);
    {
        const governor inner(current_bytes() + 10);
        EXPECT_EQ(governor::active(), &inner);
        EXPECT_TRUE(would_exceed(100));
        EXPECT_FALSE(would_exceed(5));
    }
    EXPECT_EQ(governor::active(), &outer);
    EXPECT_FALSE(would_exceed(100));
}

TEST(Governor, InstallIsPerThreadAndInvisibleToOtherThreads) {
    // The stack is thread_local: a serve worker's per-session governor must
    // not leak a limit onto sibling workers sharing the process counters.
    ASSERT_EQ(governor::active(), nullptr);
    const governor mine(current_bytes() + 10);
    EXPECT_TRUE(would_exceed(100));

    const governor* seen = &mine;  // sentinel: must be overwritten by the thread
    bool exceeded = true;
    std::thread other([&] {
        seen = governor::active();
        exceeded = would_exceed(100);
        // A nested governor installed on this thread unwinds here, leaving
        // the spawning thread's stack untouched.
        const governor theirs(current_bytes() + 10);
        EXPECT_EQ(governor::active(), &theirs);
    });
    other.join();
    EXPECT_EQ(seen, nullptr);
    EXPECT_FALSE(exceeded);
    EXPECT_EQ(governor::active(), &mine);
}

TEST(Governor, UnlimitedGovernorNeverExceeds) {
    const governor g(0);
    EXPECT_FALSE(would_exceed(std::numeric_limits<std::uint64_t>::max()));
    EXPECT_NO_THROW({
        const charge c(1u << 20, "test");
    });
}

TEST(Governor, WouldExceedFalseWithoutGovernor) {
    ASSERT_EQ(governor::active(), nullptr);
    EXPECT_FALSE(would_exceed(std::numeric_limits<std::uint64_t>::max()));
}

TEST(FaultPlan, FailNthTripsExactlyOnce) {
    const testing::alloc_fault_injector inject = testing::alloc_fault_injector::fail_nth(3);
    EXPECT_NO_THROW({ const charge a(1, "test"); });
    EXPECT_NO_THROW({ const charge b(1, "test"); });
    EXPECT_THROW({ const charge c(1, "test"); }, memory_budget_exceeded_error);
    // One-shot: the countdown does not re-arm.
    EXPECT_NO_THROW({ const charge d(1, "test"); });
}

TEST(FaultPlan, FailAboveBytesActsAsHardCeiling) {
    const baseline base;
    const testing::alloc_fault_injector inject =
        testing::alloc_fault_injector::fail_above(base.bytes + 100);
    EXPECT_NO_THROW({
        const charge ok(50, "test");
    });
    EXPECT_THROW(
        {
            const charge too_big(200, "test");
        },
        memory_budget_exceeded_error);
}

TEST(FaultPlan, InjectorRestoresPreviousPlanOnDestruction) {
    ASSERT_FALSE(get_fault_plan().armed());
    {
        const testing::alloc_fault_injector inject =
            testing::alloc_fault_injector::fail_nth(1000);
        EXPECT_TRUE(get_fault_plan().armed());
        EXPECT_EQ(get_fault_plan().fail_nth, 1000u);
    }
    EXPECT_FALSE(get_fault_plan().armed());
}

TEST(FaultPlan, EnvArmingParsesBothKnobs) {
    ASSERT_FALSE(get_fault_plan().armed());
    ::setenv("FTC_ALLOC_FAIL_NTH", "7", 1);
    ::setenv("FTC_ALLOC_FAIL_ABOVE_BYTES", "64M", 1);
    EXPECT_TRUE(testing::arm_alloc_faults_from_env());
    EXPECT_EQ(get_fault_plan().fail_nth, 7u);
    EXPECT_EQ(get_fault_plan().fail_above_bytes, 64ull << 20);
    set_fault_plan({});
    ::unsetenv("FTC_ALLOC_FAIL_NTH");
    ::unsetenv("FTC_ALLOC_FAIL_ABOVE_BYTES");
    EXPECT_FALSE(testing::arm_alloc_faults_from_env());
    EXPECT_FALSE(get_fault_plan().armed());
}

}  // namespace
}  // namespace ftc::mem
