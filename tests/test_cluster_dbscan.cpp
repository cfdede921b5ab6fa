// Unit and property tests for DBSCAN (cluster/dbscan.hpp), and
// differential tests against the expansion as it was before each point
// entered the queue at most once, over matrix sources with and without
// prepared bit rows and over prepared sparse sources.
#include "cluster/dbscan.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "cluster/autoconf.hpp"
#include "dissim/sparse.hpp"
#include "mem/mem.hpp"
#include "neighborhood_test_util.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::cluster {

// The dbscan body before the queued bit and prepare_within, verbatim: a
// core point queues every neighbour that is unvisited or noise, so a point
// can sit in the queue many times.
namespace reference {

cluster_labels dbscan(const dissim::neighborhood_source& source, const dbscan_params& params) {
    expects(params.epsilon >= 0.0, "dbscan: epsilon must be non-negative");
    expects(params.min_samples >= 1, "dbscan: min_samples must be at least 1");

    obs::span sp("cluster.dbscan");
    const std::size_t n = source.size();
    sp.count("n", n);
    cluster_labels result;
    result.labels.assign(n, kNoise);
    std::vector<bool> visited(n, false);

    // neighbors_within returns ids ascending, self included — the exact set
    // and order the historical matrix row scan produced, so the BFS below
    // behaves identically for every conforming source.
    int next_cluster = 0;
    obs::progress_stage("cluster.dbscan", n);
    for (std::size_t i = 0; i < n; ++i) {
        obs::progress_add(1);
        if (visited[i]) {
            continue;
        }
        visited[i] = true;
        const std::vector<std::uint32_t> seeds = source.neighbors_within(i, params.epsilon);
        if (seeds.size() < params.min_samples) {
            continue;  // stays noise unless later reached as a border point
        }
        const int cluster_id = next_cluster++;
        result.labels[i] = cluster_id;
        std::deque<std::size_t> queue(seeds.begin(), seeds.end());
        while (!queue.empty()) {
            const std::size_t q = queue.front();
            queue.pop_front();
            if (result.labels[q] == kNoise) {
                result.labels[q] = cluster_id;  // border or newly reached point
            }
            if (visited[q]) {
                continue;
            }
            visited[q] = true;
            const std::vector<std::uint32_t> q_neighbours =
                source.neighbors_within(q, params.epsilon);
            if (q_neighbours.size() >= params.min_samples) {
                // q is a core point: expand the cluster through it.
                for (std::size_t nb : q_neighbours) {
                    if (!visited[nb] || result.labels[nb] == kNoise) {
                        queue.push_back(nb);
                    }
                }
            }
        }
    }
    result.cluster_count = static_cast<std::size_t>(next_cluster);
    if (sp.enabled()) {
        sp.count("clusters", result.cluster_count);
        sp.count("noise", result.noise_count());
        obs::counter_add("cluster.dbscan_runs_total", 1.0);
    }
    return result;
}

}  // namespace reference

namespace {

/// Matrix from points on a line: d(i,j) = |x_i - x_j| (clamped to [0,1]).
dissim::dissimilarity_matrix line_matrix(const std::vector<double>& xs) {
    const std::size_t n = xs.size();
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            dense[i * n + j] = std::min(1.0, std::abs(xs[i] - xs[j]));
        }
    }
    return dissim::dissimilarity_matrix::from_dense(dense, n);
}

TEST(Dbscan, TwoBlobsAndOutlier) {
    // Blob A at 0.0..0.03, blob B at 0.5..0.53, outlier at 0.9.
    const std::vector<double> xs{0.00, 0.01, 0.02, 0.03, 0.50, 0.51, 0.52, 0.53, 0.90};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.05, .min_samples = 3});
    EXPECT_EQ(r.cluster_count, 2u);
    EXPECT_EQ(r.noise_count(), 1u);
    EXPECT_EQ(r.labels[8], kNoise);
    // Blob members share labels.
    EXPECT_EQ(r.labels[0], r.labels[3]);
    EXPECT_EQ(r.labels[4], r.labels[7]);
    EXPECT_NE(r.labels[0], r.labels[4]);
}

TEST(Dbscan, EverythingOneClusterAtLargeEpsilon) {
    const std::vector<double> xs{0.0, 0.1, 0.2, 0.3, 0.4};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.5, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.noise_count(), 0u);
}

TEST(Dbscan, EverythingNoiseAtTinyEpsilon) {
    const std::vector<double> xs{0.0, 0.2, 0.4, 0.6, 0.8};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.01, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 0u);
    EXPECT_EQ(r.noise_count(), 5u);
}

TEST(Dbscan, MinSamplesControlsDensityRequirement) {
    // Chain of 3 points, each 0.05 apart.
    const std::vector<double> xs{0.0, 0.05, 0.10};
    const auto m = line_matrix(xs);
    // min_samples=2: every point has one neighbour within eps -> chain forms.
    EXPECT_EQ(dbscan(m, {.epsilon = 0.06, .min_samples = 2}).cluster_count, 1u);
    // min_samples=4 (more than the 3 points): nothing can be a core point.
    EXPECT_EQ(dbscan(m, {.epsilon = 0.06, .min_samples = 4}).cluster_count, 0u);
}

TEST(Dbscan, BorderPointJoinsCluster) {
    // Dense core 0.00..0.02 plus a border point at 0.055 reachable from the
    // core but itself not core (needs 4 points within 0.04).
    const std::vector<double> xs{0.00, 0.01, 0.02, 0.055};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.04, .min_samples = 4});
    // Points 0..2 plus border all within one cluster? Core at 0.02 sees
    // {0.00,0.01,0.02,0.055} -> 4 neighbours -> core; border joins.
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.labels[3], r.labels[0]);
}

TEST(Dbscan, ChainingThroughCorePoints) {
    // Points every 0.03: all mutually reachable through neighbours.
    std::vector<double> xs;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.03 * i);
    }
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.035, .min_samples = 3});
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.noise_count(), 0u);
}

TEST(Dbscan, EmptyMatrix) {
    const auto m = dissim::dissimilarity_matrix::from_dense({}, 0);
    const cluster_labels r = dbscan(m, {.epsilon = 0.1, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 0u);
    EXPECT_TRUE(r.labels.empty());
}

TEST(Dbscan, RejectsInvalidParams) {
    const auto m = line_matrix({0.0, 0.5});
    EXPECT_THROW(dbscan(m, {.epsilon = -0.1, .min_samples = 2}), precondition_error);
    EXPECT_THROW(dbscan(m, {.epsilon = 0.1, .min_samples = 0}), precondition_error);
}

TEST(Dbscan, MembersPartitionNonNoise) {
    const std::vector<double> xs{0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.95};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.05, .min_samples = 2});
    const auto members = r.members();
    std::size_t covered = 0;
    std::set<std::size_t> seen;
    for (const auto& cluster : members) {
        for (std::size_t idx : cluster) {
            EXPECT_TRUE(seen.insert(idx).second) << "index in two clusters";
            ++covered;
        }
    }
    EXPECT_EQ(covered + r.noise_count(), xs.size());
}

// Property sweep: structural invariants across random data and parameters.
class DbscanProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanProps, LabelsAreWellFormed) {
    rng rand(GetParam());
    std::vector<double> xs;
    const std::size_t n = 5 + rand.uniform(0, 60);
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(rand.uniform01());
    }
    const auto m = line_matrix(xs);
    const dbscan_params params{rand.uniform_real(0.01, 0.3), 2 + rand.uniform(0, 4)};
    const cluster_labels r = dbscan(m, params);
    ASSERT_EQ(r.labels.size(), n);
    for (int label : r.labels) {
        EXPECT_TRUE(label == kNoise ||
                    (label >= 0 && label < static_cast<int>(r.cluster_count)));
    }
    // Every cluster id in [0, cluster_count) is actually used.
    std::vector<bool> used(r.cluster_count, false);
    for (int label : r.labels) {
        if (label != kNoise) {
            used[static_cast<std::size_t>(label)] = true;
        }
    }
    for (bool u : used) {
        EXPECT_TRUE(u);
    }
    // Every cluster contains at least one core point.
    for (const auto& members : r.members()) {
        bool has_core = false;
        for (std::size_t i : members) {
            std::size_t neighbours = 0;
            for (std::size_t j = 0; j < n; ++j) {
                if (m.at(i, j) <= params.epsilon) {
                    ++neighbours;
                }
            }
            if (neighbours >= params.min_samples) {
                has_core = true;
                break;
            }
        }
        EXPECT_TRUE(has_core);
    }
    // No noise point is within epsilon of enough points to be core.
    for (std::size_t i = 0; i < n; ++i) {
        if (r.labels[i] != kNoise) {
            continue;
        }
        std::size_t neighbours = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (m.at(i, j) <= params.epsilon) {
                ++neighbours;
            }
        }
        EXPECT_LT(neighbours, params.min_samples);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanProps, ::testing::Range<std::uint64_t>(0, 20));

TEST(DbscanDifferential, MatrixAndPreparedSparseSourcesReproduceTheReference) {
    // Random populations (gapped lengths, windows on the length bound,
    // near and exact duplicates, distance ties) along an epsilon walk up
    // and back down: sparse sources at 1, 2 and 4 lanes keep their caches
    // across the walk, as across the oversize guard's re-clusterings.
    for (const auto& [n, seed] : neighborhood_test::kPopulations) {
        const auto values = neighborhood_test::population(n, seed);
        const dissim::dissimilarity_matrix matrix(values);
        const dissim::matrix_neighborhood dense(matrix);
        for (const std::size_t cap : {std::size_t{2}, knn_k_max(n)}) {
            const std::size_t lanes[] = {1, 2, 4};
            std::vector<std::unique_ptr<dissim::sparse_neighborhood>> sparse;
            for (std::size_t k = 0; k < std::size(lanes); ++k) {
                sparse.push_back(std::make_unique<dissim::sparse_neighborhood>(
                    values, dissim::sparse_build_options{.knn_cap = cap, .threads = 1}));
            }
            for (const double eps : neighborhood_test::epsilon_walk(matrix, cap)) {
                for (const std::size_t min_samples :
                     {std::size_t{1}, std::size_t{2}, knn_k_max(n)}) {
                    SCOPED_TRACE(testing::Message()
                                 << "n=" << n << " seed=" << seed << " cap=" << cap
                                 << " eps=" << eps << " min_samples=" << min_samples);
                    const dbscan_params params{eps, min_samples};
                    const cluster_labels expected = reference::dbscan(dense, params);
                    const cluster_labels from_matrix = dbscan(matrix, params);
                    ASSERT_EQ(from_matrix.labels, expected.labels);
                    ASSERT_EQ(from_matrix.cluster_count, expected.cluster_count);
                    for (std::size_t k = 0; k < std::size(lanes); ++k) {
                        const cluster_labels got = dbscan(*sparse[k], params, lanes[k]);
                        ASSERT_EQ(got.labels, expected.labels) << lanes[k];
                        ASSERT_EQ(got.cluster_count, expected.cluster_count);
                    }
                }
            }
        }
    }
}

/// The differential populations plus the sizes around one bit-row word:
/// a last word one short of full (63), exactly full (64) and holding one
/// bit (65).
std::vector<std::pair<std::size_t, std::uint64_t>> bit_row_populations() {
    std::vector<std::pair<std::size_t, std::uint64_t>> out(
        std::begin(neighborhood_test::kPopulations), std::end(neighborhood_test::kPopulations));
    for (const std::size_t n : {63, 64, 65}) {
        out.emplace_back(n, 3);
    }
    return out;
}

/// A skip bitset over n points, each bit set with probability \p density.
std::vector<std::uint64_t> random_skip(std::size_t n, double density, rng& rand) {
    std::vector<std::uint64_t> skip((n + 63) / 64, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (rand.chance(density)) {
            skip[j / 64] |= std::uint64_t{1} << (j % 64);
        }
    }
    return skip;
}

TEST(DbscanDifferential, PreparedBitRowsReproduceTheReferenceAlongAnEpsilonWalk) {
    // One adapter per lane count keeps its bit rows along an
    // epsilon walk up and back down: the first prepare scans every row,
    // each larger epsilon scans them again, each smaller one re-tests the
    // set bits only, and a repeated epsilon prepares nothing. The labels
    // must equal the reference BFS over an unprepared adapter, and
    // expand_within must equal the default built on neighbors_within for
    // every point, at the prepared epsilon and at one no prepare made.
    for (const auto& [n, seed] : bit_row_populations()) {
        const auto values = neighborhood_test::population(n, seed);
        const dissim::dissimilarity_matrix dense(values);
        const dissim::matrix_neighborhood oracle(dense);
        const std::size_t k = knn_k_max(n);
        struct walker {
            std::size_t lanes;
            std::unique_ptr<dissim::matrix_neighborhood> adapter;
        };
        std::vector<walker> walkers;
        for (const std::size_t lanes : {1, 2, 4}) {
            walkers.push_back({lanes, std::make_unique<dissim::matrix_neighborhood>(dense)});
        }
        rng rand(seed);
        for (const double eps : neighborhood_test::epsilon_walk(dense, k)) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed << " eps=" << eps);
            for (const std::size_t min_samples : {std::size_t{1}, std::size_t{2}, k}) {
                const dbscan_params params{eps, min_samples};
                const cluster_labels expected = reference::dbscan(oracle, params);
                for (const walker& w : walkers) {
                    const cluster_labels got = dbscan(*w.adapter, params, w.lanes);
                    ASSERT_EQ(got.labels, expected.labels)
                        << "lanes=" << w.lanes << " min_samples=" << min_samples;
                    ASSERT_EQ(got.cluster_count, expected.cluster_count);
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::vector<std::uint64_t> skip =
                    random_skip(n, 0.45 * static_cast<double>(i % 3), rand);
                for (const double at : {eps, eps / 2}) {
                    for (const std::size_t min_count : {std::size_t{1}, std::size_t{2}, k, n + 1}) {
                        // Both append behind what fresh already holds.
                        std::vector<std::uint32_t> want_fresh{7};
                        const std::size_t want = oracle.neighborhood_source::expand_within(
                            i, at, min_count, skip, want_fresh);
                        for (const walker& w : walkers) {
                            std::vector<std::uint32_t> got_fresh{7};
                            ASSERT_EQ(w.adapter->expand_within(i, at, min_count, skip, got_fresh),
                                      want)
                                << "lanes=" << w.lanes << " i=" << i << " at=" << at;
                            ASSERT_EQ(got_fresh, want_fresh)
                                << "lanes=" << w.lanes << " i=" << i << " at=" << at;
                        }
                    }
                }
            }
        }
    }
}

TEST(DbscanBudget, BitRowsThatWouldExceedTheBudgetFallBackToRowScans) {
    // The bit rows only save time, so they never fail a run: under a
    // governor whose limit lies between the matrix and the matrix plus the
    // rows, every prepare of the walk skips, DBSCAN keeps the row scans
    // and returns the reference labels, and nothing stays charged. With
    // room, the rows are charged while the adapter lives.
    const auto values = neighborhood_test::population(200, 7);
    const dissim::dissimilarity_matrix matrix(values);
    const dissim::matrix_neighborhood oracle(matrix);
    const dbscan_params walk[] = {{0.35, 3}, {0.2, 3}, {0.5, 2}};
    const std::uint64_t base = mem::current_bytes();
    std::uint64_t rows = 0;
    {
        const dissim::matrix_neighborhood adapter(matrix);
        for (const dbscan_params& params : walk) {
            EXPECT_EQ(dbscan(adapter, params).labels, reference::dbscan(oracle, params).labels);
        }
        rows = mem::current_bytes() - base;
    }
    EXPECT_EQ(mem::current_bytes(), base);
    ASSERT_GT(rows, 0u);
    for (const std::size_t lanes : {1, 2}) {
        const mem::governor g(base + rows / 2);
        {
            const dissim::matrix_neighborhood adapter(matrix);
            for (const dbscan_params& params : walk) {
                const cluster_labels got = dbscan(adapter, params, lanes);
                EXPECT_EQ(got.labels, reference::dbscan(oracle, params).labels);
                EXPECT_EQ(mem::current_bytes(), base);
            }
        }
        EXPECT_EQ(mem::current_bytes(), base);
    }
}

TEST(DbscanObs, MatrixPrepareSpanCountsTheRangeWork) {
    // Under a recorder, observed labels equal unobserved ones, and each
    // dissim.matrix.prepare span says what its prepare did: a full scan
    // of n² cells, a re-test of the bits the previous epsilon set, nothing
    // at a repeated epsilon, and a skip under the budget.
    const auto values = neighborhood_test::population(65, 3);
    const std::size_t n = values.size();
    const dissim::dissimilarity_matrix matrix(values);
    const dbscan_params walk[] = {{0.5, 2}, {0.3, 2}, {0.3, 3}, {0.6, 2}};
    std::vector<cluster_labels> unobserved;
    for (const dbscan_params& params : walk) {
        unobserved.push_back(dbscan(matrix, params));
    }
    std::vector<std::map<std::string, std::uint64_t>> prepares;
    {
        obs::scoped_recorder recorder;
        {
            const dissim::matrix_neighborhood adapter(matrix);
            for (std::size_t r = 0; r < std::size(walk); ++r) {
                EXPECT_EQ(dbscan(adapter, walk[r], 2).labels, unobserved[r].labels);
            }
            const mem::governor g(mem::current_bytes());
            const dissim::matrix_neighborhood starved(matrix);
            EXPECT_EQ(dbscan(starved, walk[0]).labels, unobserved[0].labels);
        }
        for (const obs::span_record& rec : recorder.rec().trace().spans) {
            if (rec.name == "dissim.matrix.prepare") {
                auto& args = prepares.emplace_back();
                for (const obs::span_arg& a : rec.args) {
                    args[a.key] = a.value;
                }
            }
        }
    }
    // Four runs, but the repeated epsilon opens no span.
    ASSERT_EQ(prepares.size(), 4u);
    const auto pairs_at = [&](double eps) {
        std::uint64_t pairs = 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                pairs += matrix.at(i, j) <= eps ? 1 : 0;
            }
        }
        return pairs;
    };
    const std::uint64_t within_first = pairs_at(0.5);
    EXPECT_EQ(prepares[0]["n"], n);
    EXPECT_EQ(prepares[0]["cells_scanned"], n * n);
    EXPECT_EQ(prepares[0]["bits_retested"], 0u);
    EXPECT_EQ(prepares[0]["pairs_within"], within_first);
    EXPECT_EQ(prepares[1]["cells_scanned"], 0u);
    EXPECT_EQ(prepares[1]["bits_retested"], 2 * within_first + n);
    EXPECT_EQ(prepares[1]["pairs_within"], pairs_at(0.3));
    EXPECT_EQ(prepares[2]["cells_scanned"], n * n);
    EXPECT_EQ(prepares[2]["pairs_within"], pairs_at(0.6));
    EXPECT_EQ(prepares[3]["skipped"], 1u);
    EXPECT_EQ(prepares[3].count("cells_scanned"), 0u);
}

}  // namespace
}  // namespace ftc::cluster
