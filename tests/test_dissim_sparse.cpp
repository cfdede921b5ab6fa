// Unit tests of the sparse epsilon-neighborhood engine (dissim/sparse.hpp):
// every query it serves must agree bit for bit with the dense matrix
// adapter over the same values, at any thread count, any cap covering the
// request, and whether lists were freshly built or adopted from a
// checkpoint; row queries may leave a partner unscored (+inf) only where
// its cell lies at or above the ceiling. Range queries agree whether or not
// (and at how many lanes, and after which earlier epsilons) prepare_within
// ran, prepared sources serve concurrent readers, and their arrays are
// charged once. Also covers the satellite contract of cluster::autoconf
// over capped lists: identical parameters when the cap covers k_max, a
// typed knn_cap_error when it does not.
#include "dissim/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "cluster/autoconf.hpp"
#include "dissim/matrix.hpp"
#include "neighborhood_test_util.hpp"

namespace ftc::dissim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Random corpus with a spread of lengths (so bucket pruning engages) and
/// byte values away from zero (so Canberra terms stay well-conditioned).
std::vector<byte_vector> random_corpus(std::size_t n, std::uint64_t seed,
                                       std::size_t min_len = 2, std::size_t max_len = 20) {
    std::uint64_t rng = seed;
    std::vector<byte_vector> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = min_len + splitmix64(rng) % (max_len - min_len + 1);
        byte_vector v(len);
        for (std::size_t j = 0; j < len; ++j) {
            v[j] = static_cast<std::uint8_t>(splitmix64(rng) % 256);
        }
        out.push_back(std::move(v));
    }
    return out;
}

sparse_neighborhood make_sparse(const std::vector<byte_vector>& values, std::size_t cap,
                                std::size_t threads = 1) {
    sparse_build_options opts;
    opts.knn_cap = cap;
    opts.threads = threads;
    return sparse_neighborhood(values, opts);
}

const double kEpsilonGrid[] = {0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0};

TEST(SparseNeighborhood, NeighborsWithinMatchesDenseOnEpsilonGrid) {
    const auto values = random_corpus(120, 11);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(sparse.neighbors_within(i, eps), dense.neighbors_within(i, eps))
                << "i=" << i << " eps=" << eps;
        }
    }
}

TEST(SparseNeighborhood, KthNnMatchesDenseForEveryCoveredK) {
    const auto values = random_corpus(90, 23);
    const dissimilarity_matrix matrix(values);
    const std::size_t k_max = cluster::knn_k_max(values.size());
    const sparse_neighborhood sparse = make_sparse(values, k_max);
    for (std::size_t k = 1; k <= k_max; ++k) {
        EXPECT_EQ(sparse.kth_nn(k), matrix.kth_nn(k)) << "k=" << k;
    }
    EXPECT_EQ(sparse.kth_nn_many(k_max), matrix.kth_nn_many(k_max));
}

/// Row query of point i against every point, ids ascending.
std::vector<double> full_row(const neighborhood_source& source, std::size_t i,
                             double ceiling) {
    std::vector<std::size_t> js(source.size());
    std::iota(js.begin(), js.end(), std::size_t{0});
    std::vector<double> out(js.size(), -1.0);
    source.dissimilarities(i, js, ceiling, out);
    return out;
}

TEST(SparseNeighborhood, RowQueryScoresEveryPartnerWithoutCeiling) {
    const auto values = random_corpus(60, 37);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, 3);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Partners out of order, repeated, and including the point itself.
    const std::vector<std::size_t> js{7, 3, 3, 59, 0, 12, 7};
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::vector<double> row = full_row(sparse, i, kInf);
        EXPECT_EQ(row, full_row(dense, i, kInf)) << "i=" << i;
        EXPECT_EQ(row[i], 0.0);
        for (std::size_t j = 0; j < values.size(); ++j) {
            EXPECT_EQ(row[j], matrix.at(i, j)) << i << "," << j;
        }
        std::vector<double> out(js.size());
        sparse.dissimilarities(i, js, kInf, out);
        for (std::size_t k = 0; k < js.size(); ++k) {
            EXPECT_EQ(out[k], matrix.at(i, js[k])) << i << "," << js[k];
        }
    }
    std::vector<double> short_out(2);
    EXPECT_THROW(sparse.dissimilarities(0, js, kInf, short_out), precondition_error);
}

/// Windows of a few random parent strings at gapped lengths: a window and
/// its parent differ only in length, so their dissimilarity lies on the
/// length bound — the edge where a row query must still score the pair.
std::vector<byte_vector> window_corpus(std::size_t n, std::uint64_t seed) {
    const auto parents = random_corpus(3, seed, 48, 48);
    const std::size_t lengths[] = {3, 4, 6, 8, 12, 16, 24, 32, 48};
    std::uint64_t rng = seed;
    std::vector<byte_vector> out;
    for (std::size_t i = 0; i < n; ++i) {
        const byte_vector& parent = parents[splitmix64(rng) % parents.size()];
        const std::size_t len = lengths[splitmix64(rng) % std::size(lengths)];
        const std::size_t at = splitmix64(rng) % (parent.size() - len + 1);
        out.emplace_back(parent.begin() + static_cast<std::ptrdiff_t>(at),
                         parent.begin() + static_cast<std::ptrdiff_t>(at + len));
    }
    return out;
}

TEST(SparseNeighborhood, RowQueryIsExactBelowTheCeiling) {
    // Random contents lie far above their length bound, parent windows on
    // it. Ceilings are a grid plus the cells of row 0 and the doubles just
    // above them. Every finite value returned is the matrix cell bit for
    // bit, and +inf stands only for a cell at or above the ceiling.
    for (const auto& values : {random_corpus(90, 43, 2, 48), window_corpus(90, 47)}) {
        const dissimilarity_matrix matrix(values);
        const sparse_neighborhood sparse = make_sparse(values, 3);
        std::vector<double> ceilings{0.0, 0.02, 0.1, 0.3, 0.6, 1.0};
        for (std::size_t j = 0; j < values.size(); j += 2) {
            ceilings.push_back(matrix.at(0, j));
            ceilings.push_back(std::nextafter(matrix.at(0, j), 2.0));
        }
        std::size_t unscored = 0;
        for (const double ceiling : ceilings) {
            for (std::size_t i = 0; i < values.size(); ++i) {
                const std::vector<double> row = full_row(sparse, i, ceiling);
                for (std::size_t j = 0; j < values.size(); ++j) {
                    if (std::isinf(row[j])) {
                        ASSERT_GE(matrix.at(i, j), ceiling) << i << "," << j;
                        ++unscored;
                    } else {
                        ASSERT_EQ(row[j], matrix.at(i, j)) << i << "," << j;
                    }
                }
            }
        }
        EXPECT_GT(unscored, 0u);  // the bound did prune
    }
}

TEST(SparseNeighborhood, LengthLowerBoundIsConservative) {
    const auto values = random_corpus(80, 41, 2, 40);
    const dissimilarity_matrix matrix(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            const float lb =
                sparse_neighborhood::length_lower_bound(values[i].size(), values[j].size());
            EXPECT_LE(static_cast<double>(lb), matrix.at(i, j))
                << values[i].size() << " vs " << values[j].size();
        }
    }
    EXPECT_EQ(sparse_neighborhood::length_lower_bound(7, 7), 0.0f);
    EXPECT_GE(sparse_neighborhood::length_lower_bound(2, 200), 0.0f);
    EXPECT_LT(sparse_neighborhood::length_lower_bound(2, 200), 1.0f);
}

TEST(SparseNeighborhood, BucketPruningSkipsPairsWithoutChangingResults) {
    // Two tight same-length families far apart in length: the lower bound
    // between families exceeds any intra-family k-NN threshold, so the
    // builder must never score a cross-family pair.
    std::vector<byte_vector> values;
    std::uint64_t rng = 53;
    for (std::size_t i = 0; i < 60; ++i) {
        const std::size_t len = (i % 2 == 0) ? 4 : 64;
        byte_vector v(len, static_cast<std::uint8_t>(160));
        v[splitmix64(rng) % len] = static_cast<std::uint8_t>(161 + splitmix64(rng) % 3);
        values.push_back(std::move(v));
    }
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    const std::uint64_t all_pairs =
        static_cast<std::uint64_t>(values.size()) * (values.size() - 1) / 2;
    EXPECT_LT(sparse.pairs_scored(), all_pairs);
    EXPECT_EQ(sparse.bucket_count(), 2u);

    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(sparse.neighbors_within(i, eps), dense.neighbors_within(i, eps));
        }
    }
}

TEST(SparseNeighborhood, ListsAreBitwiseIdenticalAcrossThreadCounts) {
    const auto values = random_corpus(150, 67);
    const std::size_t cap = cluster::knn_k_max(values.size());
    const sparse_neighborhood serial = make_sparse(values, cap, 1);
    for (const std::size_t threads : {2u, 5u}) {
        const sparse_neighborhood parallel = make_sparse(values, cap, threads);
        ASSERT_EQ(parallel.capped().lists.size(), serial.capped().lists.size());
        for (std::size_t i = 0; i < serial.capped().lists.size(); ++i) {
            const auto& a = serial.capped().lists[i];
            const auto& b = parallel.capped().lists[i];
            ASSERT_EQ(a.size(), b.size()) << "i=" << i;
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].id, b[k].id) << "i=" << i << " k=" << k;
                EXPECT_EQ(a[k].d, b[k].d) << "i=" << i << " k=" << k;
            }
        }
    }
}

TEST(SparseNeighborhood, AdoptedListsServeIdenticalQueries) {
    const auto values = random_corpus(70, 71);
    const std::size_t cap = cluster::knn_k_max(values.size());
    const sparse_neighborhood built = make_sparse(values, cap);
    capped_neighbors copy = built.capped();
    const sparse_neighborhood adopted(values, std::move(copy));
    EXPECT_EQ(adopted.knn_cap(), built.knn_cap());
    EXPECT_EQ(adopted.kth_nn_many(cap), built.kth_nn_many(cap));
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(adopted.neighbors_within(i, eps), built.neighbors_within(i, eps));
        }
    }
}

TEST(SparseNeighborhood, RangeQueriesBeyondTheCapRescanExactly) {
    // A tiny cap forces the range path off the capped lists for any
    // realistic epsilon; answers must still match dense exactly, and a
    // repeated query (a second local scan, nothing prepared) must not
    // drift.
    const auto values = random_corpus(80, 83);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, 2);
    for (const double eps : {0.3, 0.8, 1.0}) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            const auto first = sparse.neighbors_within(i, eps);
            EXPECT_EQ(first, dense.neighbors_within(i, eps));
            EXPECT_EQ(sparse.neighbors_within(i, eps), first);
        }
    }
}

/// Every point's range answer at \p eps.
std::vector<std::vector<std::uint32_t>> all_within(const neighborhood_source& source,
                                                   double eps) {
    std::vector<std::vector<std::uint32_t>> out;
    for (std::size_t i = 0; i < source.size(); ++i) {
        out.push_back(source.neighbors_within(i, eps));
    }
    return out;
}

TEST(SparsePrepare, RandomPopulationsMatchTheMatrixAlongAnEpsilonWalk) {
    // Sources prepared at 1, 2 and 4 lanes walk epsilon up and back down,
    // so later prepares replace caches earlier ones left; a source that is
    // never prepared answers from its lists and local scans. Every answer
    // must be the matrix's, also one double past the prepared epsilon
    // (points prepared there scan locally, the rest read; one lane count
    // suffices, the arrays are identical).
    for (const auto& [n, seed] : neighborhood_test::kPopulations) {
        const auto values = neighborhood_test::population(n, seed);
        const dissimilarity_matrix matrix(values);
        const matrix_neighborhood dense(matrix);
        for (const std::size_t cap : {std::size_t{2}, cluster::knn_k_max(n)}) {
            const std::size_t lanes[] = {1, 2, 4};
            std::vector<std::unique_ptr<sparse_neighborhood>> prepared;
            for (std::size_t k = 0; k < std::size(lanes); ++k) {
                prepared.push_back(std::make_unique<sparse_neighborhood>(
                    values, sparse_build_options{.knn_cap = cap, .threads = 1}));
            }
            std::uint64_t prepare_pairs[std::size(lanes)] = {};
            const sparse_neighborhood unprepared = make_sparse(values, cap);
            double last = -1.0;
            for (const double eps : neighborhood_test::epsilon_walk(matrix, cap)) {
                SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed
                                                << " cap=" << cap << " eps=" << eps);
                const double past = std::nextafter(eps, 2.0);
                const auto expected = all_within(dense, eps);
                for (std::size_t k = 0; k < std::size(lanes); ++k) {
                    const std::uint64_t before = prepared[k]->pairs_scored();
                    prepared[k]->prepare_within(eps, lanes[k]);
                    prepare_pairs[k] += prepared[k]->pairs_scored() - before;
                    ASSERT_EQ(all_within(*prepared[k], eps), expected) << lanes[k];
                }
                ASSERT_EQ(all_within(*prepared[0], past), all_within(dense, past));
                if (eps > last) {  // stateless: the way down would repeat it
                    ASSERT_EQ(all_within(unprepared, eps), expected);
                }
                last = eps;
            }
            for (const std::uint64_t pairs : prepare_pairs) {
                EXPECT_EQ(pairs, prepare_pairs[0]);  // the same work at any lane count
            }
        }
    }
}

TEST(SparsePrepare, ScoresEachUnorderedPairOnce) {
    // At epsilon 1 no bucket is pruned, and with a cap of 2 no list is
    // complete there, so the prepare scans every point: exactly one score
    // per unordered pair, at any lane count.
    const auto values = neighborhood_test::population(200, 5);
    const std::uint64_t pairs = values.size() * (values.size() - 1) / 2;
    for (const std::size_t threads : {1u, 2u, 4u}) {
        const sparse_neighborhood sparse = make_sparse(values, 2);
        const std::uint64_t before = sparse.pairs_scored();
        sparse.prepare_within(1.0, threads);
        EXPECT_EQ(sparse.pairs_scored() - before, pairs) << threads;
        sparse.prepare_within(0.5, threads);  // every list already complete
        EXPECT_EQ(sparse.pairs_scored() - before, pairs) << threads;
    }
}

TEST(SparsePrepare, ConcurrentReadersOfOnePreparedSource) {
    // Four threads query one prepared source at once, both at the prepared
    // epsilon (pure reads) and past it (local scans that keep nothing).
    const auto values = neighborhood_test::population(200, 9);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, 2);
    const double eps = 0.35;
    const double wider = 0.5;
    sparse.prepare_within(eps, 2);
    const auto expected = all_within(dense, eps);
    const auto expected_wider = all_within(dense, wider);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            for (int round = 0; round < 3; ++round) {
                mismatches += all_within(sparse, eps) != expected;
                mismatches += all_within(sparse, wider) != expected_wider;
            }
        });
    }
    for (std::thread& reader : readers) {
        reader.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(SparsePrepare, ArraysAreChargedOnceUnderAGovernor) {
    // At epsilon 1 every pair is in range, so the prepared arrays hold
    // n·(n−1) neighbors. DBSCAN must finish with the matrix's labels under
    // a limit a quarter above that footprint — counting the whole cache
    // twice, or the own arrays twice while the mirrored ones are charged,
    // would cross it — and fail with the typed error below the single
    // count, because the charge is made on the calling thread, whose
    // governor applies. A failed prepare leaves nothing charged behind.
    const auto values = neighborhood_test::population(200, 7);
    const dissimilarity_matrix matrix(values);
    const cluster::dbscan_params params{1.0, 3};
    const cluster::cluster_labels expected = cluster::dbscan(matrix, params);
    const std::uint64_t arrays = values.size() * (values.size() - 1) * sizeof(neighbor);
    for (const std::size_t threads : {1u, 2u}) {
        const sparse_neighborhood sparse = make_sparse(values, 2);
        const std::uint64_t base = mem::current_bytes();
        {
            const mem::governor g(base + arrays / 2);
            EXPECT_THROW(cluster::dbscan(sparse, params, threads), memory_budget_exceeded_error);
        }
        EXPECT_EQ(mem::current_bytes(), base);
        {
            const mem::governor g(base + arrays + arrays / 4);
            EXPECT_EQ(cluster::dbscan(sparse, params, threads).labels, expected.labels);
        }
        EXPECT_EQ(mem::current_bytes(), base + arrays);
    }
}

TEST(SparseAutoconf, MatchesDenseWhenCapCoversKmax) {
    const auto values = random_corpus(130, 97);
    const dissimilarity_matrix matrix(values);
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    const cluster::autoconf_result from_dense = cluster::auto_configure(matrix);
    const cluster::autoconf_result from_sparse = cluster::auto_configure(sparse);
    EXPECT_EQ(from_sparse.epsilon, from_dense.epsilon);
    EXPECT_EQ(from_sparse.min_samples, from_dense.min_samples);
    EXPECT_EQ(from_sparse.selected_k, from_dense.selected_k);
    EXPECT_EQ(from_sparse.knee_found, from_dense.knee_found);

    const cluster::auto_cluster_result dense_cluster = cluster::auto_cluster(matrix);
    const cluster::auto_cluster_result sparse_cluster = cluster::auto_cluster(sparse);
    EXPECT_EQ(sparse_cluster.labels.labels, dense_cluster.labels.labels);
    EXPECT_EQ(sparse_cluster.labels.cluster_count, dense_cluster.labels.cluster_count);
    EXPECT_EQ(sparse_cluster.config.epsilon, dense_cluster.config.epsilon);
}

TEST(SparseAutoconf, UnderCappedSourceThrowsTypedError) {
    const auto values = random_corpus(200, 101);
    const std::size_t k_max = cluster::knn_k_max(values.size());
    ASSERT_GT(k_max, 2u);
    const sparse_neighborhood sparse = make_sparse(values, 2);
    EXPECT_THROW(sparse.kth_nn(k_max), knn_cap_error);
    EXPECT_THROW(sparse.kth_nn_many(k_max), knn_cap_error);
    EXPECT_THROW(cluster::auto_configure(sparse), knn_cap_error);
    // Covered requests still work on the same under-capped source.
    EXPECT_EQ(sparse.kth_nn(2).size(), values.size());
}

}  // namespace
}  // namespace ftc::dissim
