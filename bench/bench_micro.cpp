/// \file bench_micro.cpp
/// google-benchmark microbenchmarks of the computational kernels: Canberra
/// dissimilarity, matrix construction, k-NN extraction, DBSCAN, Kneedle,
/// the Whittaker smoother, and the three segmenters. Not part of the
/// paper's tables — used to track performance regressions of the library.
#include <benchmark/benchmark.h>

#include "cluster/autoconf.hpp"
#include "cluster/dbscan.hpp"
#include "dissim/canberra.hpp"
#include "dissim/matrix.hpp"
#include "mathx/kneedle.hpp"
#include "mathx/smoothing.hpp"
#include "protocols/registry.hpp"
#include "segmentation/csp.hpp"
#include "segmentation/nemesys.hpp"
#include "segmentation/netzob.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

#include <set>

namespace {

using namespace ftc;

std::vector<byte_vector> random_values(std::size_t count, std::size_t min_len,
                                       std::size_t max_len, std::uint64_t seed) {
    rng rand(seed);
    std::vector<byte_vector> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(rand.bytes(min_len + rand.uniform(0, max_len - min_len)));
    }
    return out;
}

/// Distinct random segment values — the matrix benchmarks model a trace of
/// `count` *unique* segments, matching what condense() feeds the pipeline.
std::vector<byte_vector> unique_random_values(std::size_t count, std::size_t min_len,
                                              std::size_t max_len, std::uint64_t seed) {
    rng rand(seed);
    std::set<byte_vector> seen;
    std::vector<byte_vector> out;
    out.reserve(count);
    while (out.size() < count) {
        byte_vector value = rand.bytes(min_len + rand.uniform(0, max_len - min_len));
        if (seen.insert(value).second) {
            out.push_back(std::move(value));
        }
    }
    return out;
}

void BM_CanberraEqualLength(benchmark::State& state) {
    rng rand(1);
    const byte_vector a = rand.bytes(static_cast<std::size_t>(state.range(0)));
    const byte_vector b = rand.bytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(dissim::canberra_dissimilarity(a, b));
    }
}
BENCHMARK(BM_CanberraEqualLength)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_SlidingCanberra(benchmark::State& state) {
    rng rand(2);
    const byte_vector a = rand.bytes(static_cast<std::size_t>(state.range(0)));
    const byte_vector b = rand.bytes(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(dissim::sliding_canberra_dissimilarity(a, b));
    }
}
BENCHMARK(BM_SlidingCanberra)->Args({4, 16})->Args({8, 64})->Args({16, 256});

void BM_DissimilarityMatrix(benchmark::State& state) {
    const auto values =
        random_values(static_cast<std::size_t>(state.range(0)), 2, 16, 3);
    for (auto _ : state) {
        const dissim::dissimilarity_matrix m(values);
        benchmark::DoNotOptimize(m.size());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DissimilarityMatrix)->Arg(128)->Arg(512)->Arg(1024)->Complexity();

/// Serial-vs-parallel matrix construction on a 1000-unique-segment trace.
/// The arg is the thread count; the `speedup` counter (serial time divided
/// by this configuration's mean time) lands in the google-benchmark JSON,
/// so CI can track parallel scaling alongside the raw timings. The
/// determinism suite proves the outputs are bitwise identical.
void BM_DissimilarityMatrixParallel(benchmark::State& state) {
    static const std::vector<byte_vector> values = unique_random_values(1000, 2, 16, 12);
    static const double serial_seconds = [] {
        const stopwatch watch;
        const dissim::dissimilarity_matrix m(values, {}, 1);
        benchmark::DoNotOptimize(m.size());
        return watch.elapsed_seconds();
    }();
    const auto threads = static_cast<std::size_t>(state.range(0));
    double seconds = 0.0;
    std::size_t iterations = 0;
    for (auto _ : state) {
        const stopwatch watch;
        const dissim::dissimilarity_matrix m(values, {}, threads);
        benchmark::DoNotOptimize(m.size());
        seconds += watch.elapsed_seconds();
        ++iterations;
    }
    state.counters["worker_threads"] = static_cast<double>(threads);
    state.counters["serial_ms"] = serial_seconds * 1e3;
    state.counters["speedup"] =
        iterations == 0 ? 0.0 : serial_seconds / (seconds / static_cast<double>(iterations));
}
BENCHMARK(BM_DissimilarityMatrixParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KthNearestNeighbourParallel(benchmark::State& state) {
    static const std::vector<byte_vector> values = unique_random_values(1000, 2, 16, 13);
    static const dissim::dissimilarity_matrix m(values, {}, 0);
    const auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.kth_nn(4, threads));
    }
    state.counters["worker_threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_KthNearestNeighbourParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_KthNearestNeighbour(benchmark::State& state) {
    const auto values =
        random_values(static_cast<std::size_t>(state.range(0)), 2, 16, 4);
    const dissim::dissimilarity_matrix m(values);
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.kth_nn(2));
    }
}
BENCHMARK(BM_KthNearestNeighbour)->Arg(256)->Arg(1024);

void BM_Dbscan(benchmark::State& state) {
    const auto values =
        random_values(static_cast<std::size_t>(state.range(0)), 2, 16, 5);
    const dissim::dissimilarity_matrix m(values);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster::dbscan(m, {0.2, 5}));
    }
}
BENCHMARK(BM_Dbscan)->Arg(256)->Arg(1024);

void BM_AutoConfigure(benchmark::State& state) {
    const auto values =
        random_values(static_cast<std::size_t>(state.range(0)), 2, 16, 6);
    const dissim::dissimilarity_matrix m(values);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cluster::auto_configure(m));
    }
}
BENCHMARK(BM_AutoConfigure)->Arg(256)->Arg(1024);

void BM_WhittakerSmooth(benchmark::State& state) {
    rng rand(7);
    std::vector<double> ys;
    for (long i = 0; i < state.range(0); ++i) {
        ys.push_back(rand.uniform01());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mathx::whittaker_smooth(ys, 25.0));
    }
}
BENCHMARK(BM_WhittakerSmooth)->Arg(1000)->Arg(10000);

void BM_Kneedle(benchmark::State& state) {
    mathx::curve c;
    for (long i = 0; i <= state.range(0); ++i) {
        const double x = static_cast<double>(i) / static_cast<double>(state.range(0));
        c.xs.push_back(x);
        c.ys.push_back(x < 0.2 ? 4.5 * x : 0.9 + (x - 0.2) / 8.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mathx::kneedle(c));
    }
}
BENCHMARK(BM_Kneedle)->Arg(1000)->Arg(10000);

void BM_SegmenterNemesys(benchmark::State& state) {
    const protocols::trace t =
        protocols::generate_trace("DNS", static_cast<std::size_t>(state.range(0)), 8);
    const auto messages = segmentation::message_bytes(t);
    const segmentation::nemesys_segmenter seg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seg.run(messages, {}));
    }
}
BENCHMARK(BM_SegmenterNemesys)->Arg(100)->Arg(500);

void BM_SegmenterCsp(benchmark::State& state) {
    const protocols::trace t =
        protocols::generate_trace("DNS", static_cast<std::size_t>(state.range(0)), 9);
    const auto messages = segmentation::message_bytes(t);
    const segmentation::csp_segmenter seg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seg.run(messages, {}));
    }
}
BENCHMARK(BM_SegmenterCsp)->Arg(100)->Arg(500);

void BM_SegmenterNetzobPairwise(benchmark::State& state) {
    rng rand(10);
    const byte_vector a = rand.bytes(static_cast<std::size_t>(state.range(0)));
    const byte_vector b = rand.bytes(static_cast<std::size_t>(state.range(0)));
    const segmentation::netzob_segmenter seg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seg.pairwise_score(a, b));
    }
}
BENCHMARK(BM_SegmenterNetzobPairwise)->Arg(48)->Arg(128)->Arg(300);

// One int16 lane batch: eight partners of the same length per iteration
// (items = pairs, so items_per_second compares with the scalar sibling).
void BM_SegmenterNetzobPairwiseLanes(benchmark::State& state) {
    rng rand(10);
    const auto len = static_cast<std::size_t>(state.range(0));
    const byte_vector a = rand.bytes(len);
    std::vector<byte_vector> owned;
    for (int k = 0; k < 8; ++k) {
        owned.push_back(rand.bytes(len));
    }
    const std::vector<byte_view> partners(owned.begin(), owned.end());
    std::vector<int> scores(partners.size());
    const segmentation::netzob_segmenter seg;
    for (auto _ : state) {
        seg.pairwise_scores(a, partners, scores);
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(partners.size()));
}
BENCHMARK(BM_SegmenterNetzobPairwiseLanes)->Arg(48)->Arg(128)->Arg(300);

void BM_SegmenterNetzobSmallTrace(benchmark::State& state) {
    const protocols::trace t =
        protocols::generate_trace("NTP", static_cast<std::size_t>(state.range(0)), 11);
    const auto messages = segmentation::message_bytes(t);
    const segmentation::netzob_segmenter seg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(seg.run(messages, {}));
    }
}
BENCHMARK(BM_SegmenterNetzobSmallTrace)->Arg(32)->Arg(64);

}  // namespace
