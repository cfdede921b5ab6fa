/// \file bench_sparse.cpp
/// Sparse vs. dense epsilon-neighborhood construction (DESIGN.md §13).
///
/// For each synthetic corpus size (FTC_BENCH_SPARSE_SIZES, default
/// 10000,50000,100000 segments) the bench dedups the segments into unique
/// values, builds the dense dissimilarity matrix and the sparse capped
/// neighbor lists over the same values, and proves the two engines
/// interchangeable: bitwise-equal k-NN curves, the same auto-configured
/// epsilon, identical DBSCAN labels, and identical epsilon-range neighbor
/// sets for every point. Rows land in BENCH_sparse.json with the
/// pair-reduction ratio (raw-segment pairs n·(n−1)/2 over pairs the sparse
/// builder actually scored) and both engines' build wall-clock. The
/// corpora carry no ground truth, so the quality columns stay unused. The
/// binary gates itself: a failed identity or a sub-5× reduction on any
/// corpus exits non-zero.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "cluster/autoconf.hpp"
#include "dissim/matrix.hpp"
#include "dissim/sparse.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace ftc;

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Synthetic segment corpus with the statistics that make the sparse
/// engine interesting: many concrete segments collapsing onto a bounded
/// unique pool (the dedup win), the pool organized into tight same-length
/// groups (near neighbors exist, so the capped k-NN threshold gets small)
/// spread over a wide range of lengths (so the length lower bound can
/// prune whole buckets).
std::vector<byte_vector> make_corpus(std::size_t size) {
    constexpr std::size_t kGroupMembers = 16;
    const std::size_t uniques = std::max<std::size_t>(64, std::min<std::size_t>(size / 16, 4000));
    const std::size_t groups = (uniques + kGroupMembers - 1) / kGroupMembers;

    std::uint64_t rng = bench::kBenchSeed;
    std::vector<byte_vector> pool;
    pool.reserve(uniques);
    for (std::size_t g = 0; g < groups && pool.size() < uniques; ++g) {
        const std::size_t len = 4 + (g % 80);
        byte_vector base(len);
        for (std::size_t j = 0; j < len; ++j) {
            base[j] = static_cast<std::uint8_t>(96 + (splitmix64(rng) % 128));
        }
        for (std::size_t m = 0; m < kGroupMembers && pool.size() < uniques; ++m) {
            byte_vector v = base;
            // One gently perturbed byte per member keeps intra-group
            // dissimilarity tiny relative to the cross-length lower bound.
            const std::size_t pos = splitmix64(rng) % len;
            v[pos] = static_cast<std::uint8_t>(v[pos] + 1 + (splitmix64(rng) % 4));
            pool.push_back(std::move(v));
        }
    }

    std::vector<byte_vector> segments;
    segments.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
        segments.push_back(i < pool.size() ? pool[i]
                                           : pool[splitmix64(rng) % pool.size()]);
    }
    return segments;
}

/// First-appearance-order dedup, the weighted-representative step the
/// pipeline performs before either neighborhood engine runs.
std::vector<byte_vector> dedup(const std::vector<byte_vector>& segments) {
    std::unordered_set<std::string> seen;
    std::vector<byte_vector> uniques;
    for (const byte_vector& s : segments) {
        std::string key(reinterpret_cast<const char*>(s.data()), s.size());
        if (seen.insert(std::move(key)).second) {
            uniques.push_back(s);
        }
    }
    return uniques;
}

std::vector<std::size_t> parse_sizes() {
    std::string spec = "10000,50000,100000";
    if (const char* env = std::getenv("FTC_BENCH_SPARSE_SIZES")) {
        spec = env;
    }
    std::vector<std::size_t> sizes;
    std::size_t value = 0;
    bool pending = false;
    for (char c : spec) {
        if (c >= '0' && c <= '9') {
            value = value * 10 + static_cast<std::size_t>(c - '0');
            pending = true;
        } else if (pending) {
            sizes.push_back(value);
            value = 0;
            pending = false;
        }
    }
    if (pending) {
        sizes.push_back(value);
    }
    return sizes;
}

}  // namespace

int main() {
    bench::bench_report report("sparse");
    bool gate_ok = true;

    std::printf("sparse vs dense epsilon-neighborhood\n");
    std::printf("%10s %8s %14s %11s %10s %10s  %s\n", "segments", "uniques", "pairs_scored",
                "reduction", "dense_s", "sparse_s", "identical");

    for (const std::size_t size : parse_sizes()) {
        const std::vector<byte_vector> segments = make_corpus(size);
        const std::vector<byte_vector> uniques = dedup(segments);
        const std::size_t n = uniques.size();
        mem::reset_peak();

        const stopwatch dense_watch;
        const dissim::dissimilarity_matrix matrix(uniques);
        const double dense_seconds = dense_watch.elapsed_seconds();

        const stopwatch sparse_watch;
        dissim::sparse_build_options sopts;
        sopts.knn_cap = cluster::knn_k_max(n);
        const dissim::sparse_neighborhood sparse(uniques, sopts);
        const double sparse_seconds = sparse_watch.elapsed_seconds();

        // Identity proof: the curves feeding the epsilon sweep, the
        // auto-configured epsilon, the DBSCAN labels and every range query
        // at the selected epsilon must agree bit for bit.
        bool identical = true;
        const std::size_t k_max = cluster::knn_k_max(n);
        identical &= matrix.kth_nn_many(k_max) == sparse.kth_nn_many(k_max);
        const cluster::auto_cluster_result dense_cluster = cluster::auto_cluster(matrix);
        const cluster::auto_cluster_result sparse_cluster = cluster::auto_cluster(sparse);
        identical &= std::memcmp(&dense_cluster.config.epsilon, &sparse_cluster.config.epsilon,
                                 sizeof(double)) == 0;
        identical &= dense_cluster.labels.labels == sparse_cluster.labels.labels;
        const dissim::matrix_neighborhood dense_view(matrix);
        for (std::size_t i = 0; identical && i < n; ++i) {
            identical &= dense_view.neighbors_within(i, dense_cluster.config.epsilon) ==
                         sparse.neighbors_within(i, dense_cluster.config.epsilon);
        }

        const double segment_pairs =
            static_cast<double>(size) * static_cast<double>(size - 1) / 2.0;
        const double unique_pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
        const double scored = static_cast<double>(sparse.pairs_scored());
        const double reduction = scored > 0 ? segment_pairs / scored : 0.0;
        const double unique_reduction = scored > 0 ? unique_pairs / scored : 0.0;

        bench::run_result row;
        row.messages = size;
        row.unique_fields = n;
        row.epsilon = sparse_cluster.config.epsilon;
        row.elapsed_seconds = sparse_seconds;
        row.peak_bytes = mem::peak_bytes();
        row.dedup_ratio = n > 0 ? static_cast<double>(size) / static_cast<double>(n) : 0.0;
        row.extra("pairs_scored", scored)
            .extra("pair_reduction", reduction)
            .extra("unique_pair_reduction", unique_reduction)
            .extra("dense_seconds", dense_seconds)
            .extra("sparse_seconds", sparse_seconds)
            .extra("dense_speedup", sparse_seconds > 0 ? dense_seconds / sparse_seconds : 0.0)
            .extra("buckets", static_cast<double>(sparse.bucket_count()));
        report.add("sparse_" + std::to_string(size), row);

        std::printf("%10zu %8zu %14.0f %10.1fx %10.3f %10.3f  %s\n", size, n, scored,
                    reduction, dense_seconds, sparse_seconds, identical ? "yes" : "NO");

        if (!identical) {
            gate_ok = false;
        }
        if (reduction < 5.0) {
            std::printf("GATE: pair reduction %.2fx at %zu segments is below the 5x floor\n",
                        reduction, size);
            gate_ok = false;
        }
    }

    const std::string file = report.write();
    if (!file.empty()) {
        std::printf("wrote %s\n", file.c_str());
    }
    return gate_ok ? 0 : 1;
}
