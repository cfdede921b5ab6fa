// Unit tests for the ftc::obs metrics registry (obs/obs.hpp): exact sums
// under concurrent writes, name-ordered snapshots, gauge last-write-wins,
// histogram bucketing, the disabled-path contract and a recorder that
// drops spans.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "util/thread_pool.hpp"

namespace ftc::obs {
namespace {

TEST(ObsRegistry, CounterAddAccumulates) {
    registry reg;
    reg.add("a", 1.0);
    reg.add("a", 2.0);
    reg.add("b", 0.5);
    const metrics_snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.counters.at("a"), 3.0);
    EXPECT_DOUBLE_EQ(snap.counters.at("b"), 0.5);
}

TEST(ObsRegistry, ConcurrentIncrementsSumExactly) {
    // Integer-valued increments from many threads must sum to the exact
    // total (doubles are exact for integers up to 2^53).
    registry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kPerThread; ++i) {
                reg.add("hits", 1.0);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_DOUBLE_EQ(reg.snapshot().counters.at("hits"),
                     static_cast<double>(kThreads) * kPerThread);
}

TEST(ObsRegistry, ConcurrentLanesCountersSumExactly) {
    // The instrumented fan-out path: every lane of parallel_for writes the
    // same counters; the snapshot sums them exactly, and the fan-out is
    // counted once.
    scoped_recorder recorder;
    constexpr std::size_t kCount = 4096;
    util::parallel_for(kCount, 16, 4, [&recorder](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            recorder.rec().metrics().add("work_items", 1.0);
        }
    });
    const metrics_snapshot snap = recorder.rec().metrics().snapshot();
    EXPECT_DOUBLE_EQ(snap.counters.at("work_items"), static_cast<double>(kCount));
    EXPECT_DOUBLE_EQ(snap.counters.at("threadpool.jobs_total"), 1.0);
    EXPECT_EQ(snap.histograms.at("threadpool.block_seconds").count, kCount / 16);
}

TEST(ObsRegistry, SnapshotMergeIsDeterministic) {
    registry reg;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&reg, t] {
            reg.add("shared", 1.0);
            reg.add("per_thread_" + std::to_string(t), static_cast<double>(t));
            reg.observe("latency", 1e-4);
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    // Two scrapes of an idle registry are identical, element for element.
    const metrics_snapshot a = reg.snapshot();
    const metrics_snapshot b = reg.snapshot();
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto& [name, hist] : a.histograms) {
        const histogram_snapshot& other = b.histograms.at(name);
        EXPECT_EQ(hist.buckets, other.buckets);
        EXPECT_DOUBLE_EQ(hist.sum, other.sum);
        EXPECT_EQ(hist.count, other.count);
    }
    // And names come out sorted, independent of insertion order.
    std::string last;
    for (const auto& [name, value] : a.counters) {
        (void)value;
        EXPECT_LT(last, name);
        last = name;
    }
}

TEST(ObsRegistry, GaugeLastWriteWins) {
    registry reg;
    reg.set("depth", 3.0);
    reg.set("depth", 7.0);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("depth"), 7.0);
}

TEST(ObsRegistry, HistogramBucketsAndSum) {
    registry reg;
    reg.observe("t", 5e-7);   // <= 1e-6 -> bucket 0
    reg.observe("t", 5e-3);   // <= 1e-2 -> bucket 4
    reg.observe("t", 120.0);  // > 60    -> +Inf bucket
    const histogram_snapshot h = reg.snapshot().histograms.at("t");
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum, 5e-7 + 5e-3 + 120.0);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[4], 1u);
    EXPECT_EQ(h.buckets[kHistogramBucketCount - 1], 1u);
    std::uint64_t total = 0;
    for (const std::uint64_t b : h.buckets) {
        total += b;
    }
    EXPECT_EQ(total, h.count);
}

TEST(ObsRegistry, HooksAreNoOpsWithoutRecorder) {
    // No recorder installed: the inline hooks must silently do nothing.
    ASSERT_EQ(current(), nullptr);
    counter_add("ignored", 1.0);
    gauge_set("ignored", 1.0);
    observe("ignored", 1.0);
    span sp("ignored");
    sp.count("ignored", 42);
    EXPECT_FALSE(sp.enabled());
}

TEST(ObsRegistry, SpanlessRecorderCountsButKeepsNoSpans) {
    scoped_recorder recorder(spans::drop);
    {
        span sp("dropped");
        sp.count("ignored", 42);
        EXPECT_FALSE(sp.enabled());
        counter_add("seen", 1.0);
    }
    EXPECT_TRUE(recorder.rec().trace().spans.empty());
    EXPECT_DOUBLE_EQ(recorder.rec().metrics().snapshot().counters.at("seen"), 1.0);
}

TEST(ObsRegistry, ScopedRecorderInstallsAndRestores) {
    ASSERT_EQ(current(), nullptr);
    {
        scoped_recorder recorder;
        EXPECT_EQ(current(), &recorder.rec());
        counter_add("seen", 1.0);
        EXPECT_DOUBLE_EQ(recorder.rec().metrics().snapshot().counters.at("seen"), 1.0);
    }
    EXPECT_EQ(current(), nullptr);
}

TEST(ObsRegistry, SparseCountersHaveRegisteredHelp) {
    // Every counter the sparse neighborhood engine emits must carry help
    // text so the Prometheus exposition renders a # HELP line for it —
    // tools/doc_lint pairs these names with the documentation, and this
    // assertion keeps the seeded registry from drifting out from under it.
    for (const char* name : {
             "dissim.sparse.builds_total",
             "dissim.sparse.pairs_scored_total",
             "dissim.sparse.pairs_skipped_total",
             "dissim.sparse.buckets_pruned_total",
             "dissim.sparse.range_rescans_total",
             "dissim.sparse.cache_hits_total",
             "dissim.sparse.ondemand_pairs_total",
         }) {
        EXPECT_FALSE(metric_help(name).empty()) << name;
    }
}

TEST(ObsRegistry, MatrixPrepareCountersHaveRegisteredHelp) {
    // The counters of the matrix adapter's range preparation, likewise.
    for (const char* name : {
             "dissim.matrix.cells_scanned_total",
             "dissim.matrix.bits_retested_total",
             "dissim.matrix.prepare_skipped_total",
         }) {
        EXPECT_FALSE(metric_help(name).empty()) << name;
    }
}

TEST(ObsRegistry, SequentialRecordersDoNotLeakState) {
    // A second recorder on the same thread starts from zero.
    for (int round = 0; round < 2; ++round) {
        scoped_recorder recorder;
        recorder.rec().metrics().add("round", 1.0);
        EXPECT_DOUBLE_EQ(recorder.rec().metrics().snapshot().counters.at("round"), 1.0);
    }
}

}  // namespace
}  // namespace ftc::obs
