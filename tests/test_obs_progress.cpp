// The seqlock progress counters behind --progress and the telemetry
// sampler. Writers are the pipeline stages (relaxed atomics per work
// block); the single reader is the sampler thread.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/progress.hpp"

namespace ftc::obs {
namespace {

TEST(ObsProgress, StageAnnounceAndTick) {
    progress_stage("stage.one", 10);
    progress_add(3);
    progress_add(4);
    const progress_snapshot p = progress_now();
    ASSERT_NE(p.stage, nullptr);
    EXPECT_STREQ(p.stage, "stage.one");
    EXPECT_EQ(p.done, 7u);
    EXPECT_EQ(p.total, 10u);
}

TEST(ObsProgress, NewStageResetsDoneAndBumpsSeq) {
    progress_stage("stage.a", 5);
    progress_add(5);
    const progress_snapshot a = progress_now();
    progress_stage("stage.b", 0);  // unknown total
    const progress_snapshot b = progress_now();
    EXPECT_STREQ(b.stage, "stage.b");
    EXPECT_EQ(b.done, 0u);
    EXPECT_EQ(b.total, 0u);
    EXPECT_GT(b.stage_seq, a.stage_seq);
}

TEST(ObsProgress, ConcurrentTicksAllCounted) {
    progress_stage("stage.parallel", 4 * 10000);
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([] {
            for (int i = 0; i < 10000; ++i) {
                progress_add(1);
            }
        });
    }
    // A racing reader must always see a coherent snapshot: the announced
    // stage (no torn pointer) and done within [0, total].
    for (int i = 0; i < 1000; ++i) {
        const progress_snapshot p = progress_now();
        if (p.stage != nullptr) {
            EXPECT_STREQ(p.stage, "stage.parallel");
            EXPECT_LE(p.done, p.total);
        }
    }
    for (std::thread& w : writers) {
        w.join();
    }
    const progress_snapshot p = progress_now();
    EXPECT_EQ(p.done, 4u * 10000u);
}

TEST(ObsProgress, DoneMonotonicWithinStage) {
    progress_stage("stage.mono", 100);
    std::uint64_t last = 0;
    for (int i = 0; i < 100; ++i) {
        progress_add(1);
        const progress_snapshot p = progress_now();
        EXPECT_GE(p.done, last);
        last = p.done;
    }
    EXPECT_EQ(last, 100u);
}

}  // namespace
}  // namespace ftc::obs
