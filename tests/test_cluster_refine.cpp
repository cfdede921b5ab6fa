// Unit tests for cluster refinement: merge & split (cluster/refine.hpp),
// its deadline and stop-flag polling, and differential tests of the merge
// pass at 1, 2 and 4 lanes against a serial per-pair reference pass, over
// both the dense matrix and the sparse neighborhood.
#include "cluster/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>

#include "cluster/autoconf.hpp"
#include "dissim/sparse.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/interrupt.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ftc::cluster {
namespace {

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

cluster_labels make_labels(std::vector<int> labels) {
    cluster_labels out;
    int max_label = -1;
    for (int l : labels) {
        max_label = std::max(max_label, l);
    }
    out.labels = std::move(labels);
    out.cluster_count = static_cast<std::size_t>(max_label + 1);
    return out;
}

TEST(Merge, AdjacentEqualDensityClustersMerge) {
    // Two halves of one uniform blob, split artificially: spacing 0.01
    // everywhere, including across the split -> link distance equals the
    // intra-cluster scale, densities identical -> must merge.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.01 * i);
        labels.push_back(0);
    }
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.1 + 0.01 * (i + 1));
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const refine_result r = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(r.labels.cluster_count, 1u);
    ASSERT_EQ(r.merges.size(), 1u);
    EXPECT_GT(r.merges[0].link_dissimilarity, 0.0);
}

TEST(Merge, DistantClustersStaySeparate) {
    std::vector<double> xs;
    std::vector<int> labels;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.001 * i);
        labels.push_back(0);
    }
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.8 + 0.001 * i);
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const refine_result r = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(r.labels.cluster_count, 2u);
    EXPECT_TRUE(r.merges.empty());
}

TEST(Merge, DissimilarDensityClustersStaySeparate) {
    // Tight cluster (spacing 0.0005, 12 members) next to a loose one
    // (spacing 0.04, 8 members). The loose cluster is smaller, so the
    // epsilon of condition 1 spans both; the local densities around the
    // link segments then differ by far more than the 0.01 threshold, and
    // the cluster-wide 1-NN medians differ by more than 0.002 (condition 2)
    // -> no merge.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int i = 0; i < 12; ++i) {
        xs.push_back(0.0005 * i);
        labels.push_back(0);
    }
    for (int i = 0; i < 8; ++i) {
        xs.push_back(0.02 + 0.04 * i);
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const refine_result r = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(r.labels.cluster_count, 2u);
}

TEST(Merge, TransitiveMergingViaUnionFind) {
    // Three consecutive slices of one uniform blob -> all three collapse.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int c = 0; c < 3; ++c) {
        for (int i = 0; i < 8; ++i) {
            xs.push_back(0.01 * (c * 8 + i));
            labels.push_back(c);
        }
    }
    const auto m = line_matrix(xs);
    const refine_result r = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(r.labels.cluster_count, 1u);
    EXPECT_GE(r.merges.size(), 2u);
}

TEST(Merge, NoiseLabelsUntouched) {
    std::vector<double> xs{0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.9};
    std::vector<int> labels{0, 0, 0, 1, 1, 1, kNoise};
    const auto m = line_matrix(xs);
    const refine_result r = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(r.labels.labels[6], kNoise);
}

TEST(Merge, SingleClusterPassesThrough) {
    const auto m = line_matrix({0.0, 0.01, 0.02});
    const refine_result r = merge_clusters(m, make_labels({0, 0, 0}));
    EXPECT_EQ(r.labels.cluster_count, 1u);
    EXPECT_TRUE(r.merges.empty());
}

TEST(Merge, DegenerateSingletonClustersIgnored) {
    const auto m = line_matrix({0.0, 0.001, 0.002, 0.003});
    // Cluster 1 is a singleton: no density information -> never merged.
    const refine_result r = merge_clusters(m, make_labels({0, 0, 0, 1}));
    EXPECT_EQ(r.labels.cluster_count, 2u);
}

TEST(Split, PolarizedOccurrencesSplit) {
    // One cluster of 20 values: 17 appear once, 3 appear 400 times each.
    // |c| = 17 + 1200 = 1217, F = ln|c| ~ 7.1; PR(F) = 85%? -> need > 95 %:
    // use 39 rare + 3 frequent -> PR = 39.5/42*100 ~ 94 -> push to 60 rare.
    std::vector<int> labels(63, 0);
    std::vector<std::size_t> occurrences(63, 1);
    occurrences[60] = 400;
    occurrences[61] = 400;
    occurrences[62] = 400;
    const refine_result r = split_clusters(make_labels(labels), occurrences);
    ASSERT_EQ(r.splits.size(), 1u);
    EXPECT_EQ(r.labels.cluster_count, 2u);
    EXPECT_EQ(r.splits[0].high_side, 3u);
    EXPECT_EQ(r.splits[0].low_side, 60u);
    // The three frequent values share the new cluster id.
    EXPECT_EQ(r.labels.labels[60], r.labels.labels[61]);
    EXPECT_NE(r.labels.labels[60], r.labels.labels[0]);
}

TEST(Split, UniformOccurrencesDoNotSplit) {
    std::vector<int> labels(30, 0);
    std::vector<std::size_t> occurrences(30, 5);
    const refine_result r = split_clusters(make_labels(labels), occurrences);
    EXPECT_TRUE(r.splits.empty());
    EXPECT_EQ(r.labels.cluster_count, 1u);
}

TEST(Split, SmallClustersSkipped) {
    std::vector<int> labels{0, 0};
    std::vector<std::size_t> occurrences{1, 1000};
    const refine_result r = split_clusters(make_labels(labels), occurrences);
    EXPECT_TRUE(r.splits.empty());
}

TEST(Split, RequiresOccurrencePerLabel) {
    std::vector<int> labels{0, 0, 0};
    std::vector<std::size_t> occurrences{1, 1};
    EXPECT_THROW(split_clusters(make_labels(labels), occurrences), precondition_error);
}

TEST(Refine, MergeThenSplitComposition) {
    // Uniform blob split in two (will merge back) where a few values are
    // hugely frequent (will split off).
    std::vector<double> xs;
    std::vector<int> labels;
    std::vector<std::size_t> occurrences;
    for (int i = 0; i < 60; ++i) {
        xs.push_back(0.01 * i);
        labels.push_back(i < 30 ? 0 : 1);
        occurrences.push_back(1);
    }
    occurrences[0] = 500;
    occurrences[1] = 500;
    const auto m = line_matrix(xs);
    const refine_result r = refine(m, make_labels(labels), occurrences);
    EXPECT_GE(r.merges.size(), 1u);
    EXPECT_EQ(r.splits.size(), 1u);
    // Net effect: one merged cluster split into frequent/infrequent halves.
    EXPECT_EQ(r.labels.cluster_count, 2u);
}

TEST(Merge, MaxMergedFractionBlocksOversizedMerge) {
    // Two mergeable halves of a uniform blob; with max_merged_fraction the
    // merge (which would cover 100% of non-noise points) must be rejected.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(0.01 * i);
        labels.push_back(i < 10 ? 0 : 1);
    }
    const auto m = line_matrix(xs);
    refine_options opt;
    opt.max_merged_fraction = 0.6;
    const refine_result blocked = merge_clusters(m, make_labels(labels), opt);
    EXPECT_EQ(blocked.labels.cluster_count, 2u);
    EXPECT_TRUE(blocked.merges.empty());
    // Without the cap the same input merges.
    const refine_result merged = merge_clusters(m, make_labels(labels));
    EXPECT_EQ(merged.labels.cluster_count, 1u);
}

TEST(Merge, MaxMergedFractionAllowsSmallMerges) {
    // Two small adjacent clusters plus one large distant cluster: merging
    // the small ones stays below the fraction and must still happen.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int i = 0; i < 8; ++i) {
        xs.push_back(0.01 * i);
        labels.push_back(0);
    }
    for (int i = 0; i < 8; ++i) {
        xs.push_back(0.08 + 0.01 * (i + 1));
        labels.push_back(1);
    }
    for (int i = 0; i < 40; ++i) {
        xs.push_back(0.8 + 0.0005 * i);
        labels.push_back(2);
    }
    const auto m = line_matrix(xs);
    refine_options opt;
    opt.max_merged_fraction = 0.6;
    const refine_result r = merge_clusters(m, make_labels(labels), opt);
    EXPECT_EQ(r.labels.cluster_count, 2u);
    ASSERT_EQ(r.merges.size(), 1u);
}

TEST(Refine, NoClustersIsANoop) {
    const auto m = line_matrix({0.3, 0.6, 0.9});
    cluster_labels input;
    input.labels = {kNoise, kNoise, kNoise};
    input.cluster_count = 0;
    const refine_result r = refine(m, input, {1, 1, 1});
    EXPECT_EQ(r.labels.cluster_count, 0u);
    EXPECT_TRUE(r.merges.empty());
    EXPECT_TRUE(r.splits.empty());
}

/// Two mergeable halves of a uniform blob (refinement has work to poll in).
cluster_labels two_halves(std::vector<double>& xs) {
    std::vector<int> labels;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(0.01 * i);
        labels.push_back(i < 10 ? 0 : 1);
    }
    return make_labels(labels);
}

TEST(Refine, ExpiredDeadlineRaisesBudgetExceeded) {
    std::vector<double> xs;
    const cluster_labels labels = two_halves(xs);
    const auto m = line_matrix(xs);
    const deadline expired(-1.0);
    for (const std::size_t lanes : {1, 2}) {
        try {
            refine(dissim::matrix_neighborhood(m), labels,
                   std::vector<std::size_t>(xs.size(), 1), {}, expired, lanes);
            FAIL() << "refine ignored an expired deadline at " << lanes << " lanes";
        } catch (const interrupted_error&) {
            FAIL() << "an expired deadline is not an interrupt";
        } catch (const budget_exceeded_error&) {
        }
    }
}

TEST(Refine, PendingInterruptRaisesInterrupted) {
    std::vector<double> xs;
    const cluster_labels labels = two_halves(xs);
    const auto m = line_matrix(xs);
    const dissim::matrix_neighborhood source(m);
    const std::vector<std::size_t> occurrences(xs.size(), 1);
    for (const std::size_t lanes : {1, 2}) {
        const scoped_interrupt_clear guard;
        request_interrupt();
        EXPECT_THROW(refine(source, labels, occurrences, {}, {}, lanes), interrupted_error);
        clear_interrupt();
        EXPECT_EQ(refine(source, labels, occurrences, {}, {}, lanes).merges.size(), 1u);
    }
}

// ---------------------------------------------------------------------------
// Differential test. `reference` is the straightforward merge pass: it
// scores the full cross product of every cluster pair and reads every
// intra-cluster pair twice, one pair per query. The production pass must
// reproduce its labels, merge records and link dissimilarities bit for bit,
// over the dense matrix and over the sparse neighborhood.
// ---------------------------------------------------------------------------

namespace reference {

double pair_dissimilarity(const dissim::neighborhood_source& source, std::size_t i,
                          std::size_t j) {
    const std::size_t js[1] = {j};
    double out[1] = {0.0};
    source.dissimilarities(i, js, std::numeric_limits<double>::infinity(), out);
    return out[0];
}

/// Per-cluster statistics needed by the merge conditions.
struct cluster_stats {
    std::vector<std::size_t> members;
    double mean_pairwise = 0.0;  ///< mean of D(c)
    double max_pairwise = 0.0;   ///< d_max: cluster extent
    double minmed = 0.0;         ///< median 1-NN distance within the cluster
};

cluster_stats compute_stats(const dissim::neighborhood_source& source,
                            std::vector<std::size_t> members) {
    cluster_stats s;
    s.members = std::move(members);
    if (s.members.size() < 2) {
        return s;
    }
    std::vector<double> pairwise;
    pairwise.reserve(s.members.size() * (s.members.size() - 1) / 2);
    std::vector<double> one_nn;
    one_nn.reserve(s.members.size());
    for (std::size_t a = 0; a < s.members.size(); ++a) {
        double nearest = std::numeric_limits<double>::max();
        for (std::size_t b = 0; b < s.members.size(); ++b) {
            if (a == b) {
                continue;
            }
            const double d = pair_dissimilarity(source, s.members[a], s.members[b]);
            nearest = std::min(nearest, d);
            if (a < b) {
                pairwise.push_back(d);
            }
        }
        one_nn.push_back(nearest);
    }
    s.mean_pairwise = mean(pairwise);
    s.max_pairwise = max_value(pairwise);
    s.minmed = median(one_nn);
    return s;
}

/// Median of the dissimilarities within \p eps around member \p link inside
/// the cluster (rho_eps of Sec. III-F); 0 when no neighbour lies within eps.
double eps_density(const dissim::neighborhood_source& source, const cluster_stats& cluster,
                   std::size_t link, double eps) {
    std::vector<double> within;
    for (std::size_t other : cluster.members) {
        if (other == link) {
            continue;
        }
        const double d = pair_dissimilarity(source, link, other);
        if (d <= eps) {
            within.push_back(d);
        }
    }
    return median(within);
}

/// Disjoint-set forest over cluster ids.
class union_find {
public:
    explicit union_find(std::size_t n) : parent_(n) {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    std::size_t find(std::size_t x) {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

private:
    std::vector<std::size_t> parent_;
};

refine_result merge_clusters(const dissim::neighborhood_source& source,
                             const cluster_labels& input, const refine_options& options) {
    refine_result out;
    out.labels = input;
    if (input.cluster_count < 2) {
        return out;
    }

    std::vector<cluster_stats> stats;
    stats.reserve(input.cluster_count);
    for (std::vector<std::size_t>& members : input.members()) {
        stats.push_back(compute_stats(source, std::move(members)));
    }

    std::size_t non_noise = 0;
    for (const cluster_stats& s : stats) {
        non_noise += s.members.size();
    }
    std::vector<std::size_t> component_size;
    component_size.reserve(stats.size());
    for (const cluster_stats& s : stats) {
        component_size.push_back(s.members.size());
    }

    union_find forest(input.cluster_count);
    auto merge_would_oversize = [&](std::size_t i, std::size_t j) {
        if (options.max_merged_fraction <= 0.0) {
            return false;
        }
        const std::size_t combined =
            component_size[forest.find(i)] + component_size[forest.find(j)];
        return static_cast<double>(combined) >
               options.max_merged_fraction * static_cast<double>(non_noise);
    };
    auto record_merge = [&](std::size_t i, std::size_t j) {
        const std::size_t ri = forest.find(i);
        const std::size_t rj = forest.find(j);
        const std::size_t combined = component_size[ri] + component_size[rj];
        forest.unite(i, j);
        component_size[forest.find(i)] = combined;
    };
    for (std::size_t i = 0; i < stats.size(); ++i) {
        for (std::size_t j = i + 1; j < stats.size(); ++j) {
            const cluster_stats& ci = stats[i];
            const cluster_stats& cj = stats[j];
            if (ci.members.size() < 2 || cj.members.size() < 2) {
                continue;  // degenerate clusters carry no density information
            }
            if (forest.find(i) == forest.find(j) || merge_would_oversize(i, j)) {
                continue;
            }
            // Link segments: the closest cross pair.
            double d_link = std::numeric_limits<double>::max();
            std::size_t link_i = ci.members.front();
            std::size_t link_j = cj.members.front();
            for (std::size_t a : ci.members) {
                for (std::size_t b : cj.members) {
                    const double d = pair_dissimilarity(source, a, b);
                    if (d < d_link) {
                        d_link = d;
                        link_i = a;
                        link_j = b;
                    }
                }
            }

            // Condition 1: very close by + similar local eps-density.
            bool merged = false;
            if (d_link < std::max(ci.mean_pairwise, cj.mean_pairwise)) {
                const cluster_stats& smaller =
                    ci.members.size() <= cj.members.size() ? ci : cj;
                const double eps = smaller.max_pairwise / 2.0;
                const double rho_i = eps_density(source, ci, link_i, eps);
                const double rho_j = eps_density(source, cj, link_j, eps);
                if (std::abs(rho_i - rho_j) < options.eps_rho_threshold) {
                    record_merge(i, j);
                    out.merges.push_back({static_cast<int>(i), static_cast<int>(j),
                                          merge_reason::condition1, d_link});
                    merged = true;
                }
            }
            // Condition 2: somewhat close by + similar whole-cluster density.
            if (!merged && ci.mean_pairwise > 0.0 && cj.mean_pairwise > 0.0) {
                const double closeness = 0.5 * (ci.minmed / ci.mean_pairwise +
                                                cj.minmed / cj.mean_pairwise);
                if (d_link < closeness &&
                    std::abs(ci.minmed - cj.minmed) < options.neighbor_density_threshold) {
                    record_merge(i, j);
                    out.merges.push_back({static_cast<int>(i), static_cast<int>(j),
                                          merge_reason::condition2, d_link});
                }
            }
        }
    }

    // Relabel to the union-find roots, compacted to 0..m-1.
    std::vector<int> root_to_compact(input.cluster_count, -1);
    int next = 0;
    for (std::size_t c = 0; c < input.cluster_count; ++c) {
        const std::size_t root = forest.find(c);
        if (root_to_compact[root] < 0) {
            root_to_compact[root] = next++;
        }
    }
    for (int& label : out.labels.labels) {
        if (label != kNoise) {
            label = root_to_compact[forest.find(static_cast<std::size_t>(label))];
        }
    }
    out.labels.cluster_count = static_cast<std::size_t>(next);
    return out;
}

}  // namespace reference

/// Random bytes drawn from \p alphabet (all 256 values when empty).
byte_vector random_bytes(rng& r, std::size_t len, const std::vector<std::uint8_t>& alphabet) {
    byte_vector v(len);
    for (std::uint8_t& b : v) {
        b = alphabet.empty() ? r.byte() : r.pick(alphabet);
    }
    return v;
}

/// Non-protocol byte populations. Family 0: random bytes at lengths 1..48.
/// Family 1: windows of a few parent strings at gapped lengths, some with
/// one byte changed, so many pairs sit on the length bound (best window
/// distance 0). Family 2: a two-letter alphabet at three lengths, with
/// duplicates, so many pairs share one distance.
std::vector<byte_vector> population(int family, std::size_t n, std::uint64_t seed) {
    rng r(seed);
    std::vector<byte_vector> out;
    if (family == 0) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_bytes(r, r.uniform(1, 48), {}));
        }
    } else if (family == 1) {
        const std::vector<std::size_t> lengths{3, 4, 6, 8, 12, 16, 24, 32, 48};
        std::vector<byte_vector> parents;
        for (int p = 0; p < 4; ++p) {
            parents.push_back(random_bytes(r, 48, {}));
        }
        for (std::size_t i = 0; i < n; ++i) {
            const byte_vector& parent = r.pick(parents);
            const std::size_t len = r.pick(lengths);
            const std::size_t at = r.uniform(0, parent.size() - len);
            byte_vector v(parent.begin() + static_cast<std::ptrdiff_t>(at),
                          parent.begin() + static_cast<std::ptrdiff_t>(at + len));
            if (r.chance(0.3)) {
                v[r.uniform(0, len - 1)] = r.byte();
            }
            out.push_back(std::move(v));
        }
    } else {
        const std::vector<std::uint8_t> letters{0x40, 0x80};
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_bytes(r, r.uniform(3, 5), letters));
        }
    }
    return out;
}

/// Labels with every shape refinement meets: DBSCAN clusters cut into
/// random parts (near, equally dense neighbours that should merge), plus
/// noise, singleton and two-member clusters; or, for odd \p scheme, plain
/// random labels. Cluster ids are compacted to 0..count-1.
cluster_labels random_labels(const dissim::dissimilarity_matrix& matrix, int scheme,
                             rng& r) {
    const std::size_t n = matrix.size();
    std::vector<int> raw(n, kNoise);
    if (scheme % 2 == 0) {
        dbscan_params params;
        params.epsilon = r.uniform_real(0.05, 0.4);
        params.min_samples = 3;
        const cluster_labels base = dbscan(matrix, params);
        for (std::size_t i = 0; i < n; ++i) {
            if (base.labels[i] != kNoise) {
                raw[i] = base.labels[i] * 3 + static_cast<int>(r.uniform(0, 2));
            }
        }
    } else {
        const int clusters = static_cast<int>(r.uniform(2, 9));
        for (std::size_t i = 0; i < n; ++i) {
            raw[i] = r.chance(0.1) ? kNoise : static_cast<int>(r.uniform(0, clusters - 1));
        }
    }
    int fresh = static_cast<int>(3 * n);
    for (int k = 0; k < 4; ++k) {
        raw[r.uniform(0, n - 1)] = fresh++;  // singleton
        const int pair_label = fresh++;
        raw[r.uniform(0, n - 1)] = pair_label;
        raw[r.uniform(0, n - 1)] = pair_label;
        raw[r.uniform(0, n - 1)] = kNoise;
    }
    std::vector<int> compact(static_cast<std::size_t>(fresh), -1);
    cluster_labels out;
    out.labels.assign(n, kNoise);
    for (std::size_t i = 0; i < n; ++i) {
        if (raw[i] == kNoise) {
            continue;
        }
        int& id = compact[static_cast<std::size_t>(raw[i])];
        if (id < 0) {
            id = static_cast<int>(out.cluster_count++);
        }
        out.labels[i] = id;
    }
    return out;
}

void expect_same_merge(const refine_result& got, const refine_result& want,
                       const std::string& where) {
    EXPECT_EQ(got.labels.labels, want.labels.labels) << where;
    EXPECT_EQ(got.labels.cluster_count, want.labels.cluster_count) << where;
    ASSERT_EQ(got.merges.size(), want.merges.size()) << where;
    for (std::size_t k = 0; k < want.merges.size(); ++k) {
        EXPECT_EQ(got.merges[k].cluster_a, want.merges[k].cluster_a) << where;
        EXPECT_EQ(got.merges[k].cluster_b, want.merges[k].cluster_b) << where;
        EXPECT_EQ(got.merges[k].reason, want.merges[k].reason) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.merges[k].link_dissimilarity),
                  std::bit_cast<std::uint64_t>(want.merges[k].link_dissimilarity))
            << where;
    }
}

/// merge_clusters at 1, 2 and 4 lanes over both sources must reproduce
/// \p want, and the sparse source must score the same pairs at every lane
/// count.
void expect_same_lanes(const dissim::neighborhood_source& dense,
                       const dissim::sparse_neighborhood& sparse, const cluster_labels& labels,
                       const refine_options& options, const refine_result& want,
                       const std::string& where) {
    std::uint64_t serial_pairs = 0;
    for (const std::size_t lanes : {1, 2, 4}) {
        const std::string at = where + " at " + std::to_string(lanes) + " lanes";
        expect_same_merge(merge_clusters(dense, labels, options, {}, lanes), want, at + " dense");
        const std::uint64_t before = sparse.pairs_scored();
        expect_same_merge(merge_clusters(sparse, labels, options, {}, lanes), want,
                          at + " sparse");
        const std::uint64_t pairs = sparse.pairs_scored() - before;
        if (lanes == 1) {
            serial_pairs = pairs;
        }
        EXPECT_EQ(pairs, serial_pairs) << at << ": sparse pairs scored";
    }
}

TEST(MergeDifferential, RowQueriesReproduceThePerPairMergeBitwise) {
    std::size_t merges[2] = {0, 0};
    std::size_t tied_links = 0;
    for (int family = 0; family < 3; ++family) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto values = population(family, 70 + 20 * seed, 1000 * family + seed);
            const dissim::dissimilarity_matrix matrix(values);
            const dissim::matrix_neighborhood dense(matrix);
            dissim::sparse_build_options opts;
            opts.knn_cap = knn_k_max(values.size());
            const dissim::sparse_neighborhood sparse(values, opts);
            rng r(seed * 7919 + static_cast<std::uint64_t>(family));
            for (int scheme = 0; scheme < 4; ++scheme) {
                const cluster_labels labels = random_labels(matrix, scheme, r);
                const auto members = labels.members();
                for (const bool loose : {false, true}) {
                    for (const double fraction : {0.0, 0.35}) {
                        refine_options options;
                        options.max_merged_fraction = fraction;
                        if (loose) {
                            options.eps_rho_threshold = 0.2;
                            options.neighbor_density_threshold = 0.05;
                        }
                        const std::string where =
                            "family " + std::to_string(family) + " seed " +
                            std::to_string(seed) + " scheme " + std::to_string(scheme) +
                            (loose ? " loose" : " paper") + " fraction " +
                            std::to_string(fraction);
                        const refine_result want =
                            reference::merge_clusters(dense, labels, options);
                        expect_same_lanes(dense, sparse, labels, options, want, where);
                        for (const merge_record& m : want.merges) {
                            ++merges[m.reason == merge_reason::condition1 ? 0 : 1];
                            std::size_t at_min = 0;
                            for (std::size_t a : members[static_cast<std::size_t>(m.cluster_a)]) {
                                for (std::size_t b :
                                     members[static_cast<std::size_t>(m.cluster_b)]) {
                                    at_min += matrix.at(a, b) == m.link_dissimilarity ? 1 : 0;
                                }
                            }
                            tied_links += at_min > 1 ? 1 : 0;
                        }
                    }
                }
            }
        }
    }
    // The populations exercise both merge conditions and links whose
    // minimum is shared by several cross pairs (first arg-min).
    EXPECT_GT(merges[0], 0u);
    EXPECT_GT(merges[1], 0u);
    EXPECT_GT(tied_links, 0u);
}

// ---------------------------------------------------------------------------
// Lanes. The merge pass runs its row queries on lanes: a cluster's D(c) by
// rows that fold in row order, each pass's link searches in
// blocks of kLinkBlockRows rows that reduce in row order, and the merges in
// j order after eligibility is checked again. The populations below break
// if any of the three is done otherwise.
// ---------------------------------------------------------------------------

/// Labels splitting \p n points at random into \p clusters clusters, with
/// about 5 % noise: clusters large enough that their fan-outs start lanes.
cluster_labels few_clusters(std::size_t n, int clusters, rng& r) {
    std::vector<int> labels(n);
    for (int& label : labels) {
        label = r.chance(0.05) ? kNoise : static_cast<int>(r.uniform(0, clusters - 1));
    }
    return make_labels(std::move(labels));
}

/// Whether a fan-out under \p recorder ran on more than one lane.
bool lanes_started(const obs::scoped_recorder& recorder) {
    return recorder.rec().metrics().snapshot().gauges.count("threadpool.queue_depth") > 0;
}

double counter(const obs::scoped_recorder& recorder, const std::string& name) {
    const auto counters = recorder.rec().metrics().snapshot().counters;
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

TEST(MergeLanes, LargeClustersReproduceThePerPairMergeAtEveryLaneCount) {
    for (int family = 0; family < 3; ++family) {
        const auto values = population(family, 400, 77 + static_cast<std::uint64_t>(family));
        const dissim::dissimilarity_matrix matrix(values);
        const dissim::matrix_neighborhood dense(matrix);
        dissim::sparse_build_options opts;
        opts.knn_cap = knn_k_max(values.size());
        const dissim::sparse_neighborhood sparse(values, opts);
        rng r(5 + static_cast<std::uint64_t>(family));
        for (const int clusters : {2, 3}) {
            const cluster_labels labels = few_clusters(values.size(), clusters, r);
            for (const bool loose : {false, true}) {
                refine_options options;
                if (loose) {
                    options.eps_rho_threshold = 0.2;
                    options.neighbor_density_threshold = 0.05;
                }
                const std::string where = "family " + std::to_string(family) + ", " +
                                          std::to_string(clusters) + " clusters" +
                                          (loose ? " loose" : " paper");
                expect_same_lanes(dense, sparse, labels, options,
                                  reference::merge_clusters(dense, labels, options), where);
            }
            const obs::scoped_recorder recorder;
            merge_clusters(sparse, labels, {}, {}, 2);
            EXPECT_TRUE(lanes_started(recorder)) << "family " << family << ": no lane started";
        }
    }
}

TEST(MergeLanes, TiedLinksAcrossARowBlockKeepTheFirstArgMin) {
    // Cluster 0 has kLinkBlockRows + 6 members, so its link search against
    // cluster 1 runs in two blocks of rows. Its rows kLinkBlockRows - 1 (the
    // first block's last) and kLinkBlockRows (the second block's first) lie
    // 1/64 from either end of cluster 1: the closest cross pairs, tied
    // exactly (every coordinate is a multiple of a power of two). Around
    // the first, cluster 0 is as dense as cluster 1, so condition 1 merges;
    // around the second it is empty, and neither condition would.
    std::vector<double> xs;
    for (std::size_t k = 0; k + 3 < kLinkBlockRows; ++k) {
        xs.push_back(0.125 + static_cast<double>(k) / 256.0);
    }
    xs.push_back(0.421875);  // 2/32 left of the first link
    xs.push_back(0.453125);  // 1/32 left of it
    xs.push_back(0.484375);  // the first link, 1/64 left of cluster 1
    xs.push_back(0.640625);  // the second link, 1/64 right of cluster 1
    for (int k = 0; k < 5; ++k) {
        xs.push_back(0.875 + k / 256.0);
    }
    ASSERT_EQ(xs.size(), kLinkBlockRows + 6);
    std::vector<int> labels(xs.size(), 0);
    for (int k = 0; k < 5; ++k) {
        xs.push_back(0.5 + k / 32.0);
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const dissim::matrix_neighborhood source(m);
    const cluster_labels input = make_labels(labels);
    const refine_result want = reference::merge_clusters(source, input, {});
    ASSERT_EQ(want.merges.size(), 1u);
    EXPECT_EQ(want.merges[0].reason, merge_reason::condition1);
    EXPECT_EQ(want.merges[0].link_dissimilarity, 1.0 / 64);
    for (const std::size_t lanes : {1, 2, 4}) {
        expect_same_merge(merge_clusters(source, input, {}, {}, lanes), want,
                          std::to_string(lanes) + " lanes");
    }
}

TEST(MergeLanes, AMergeEarlyInAPassMakesItsLaterPairsIneligible) {
    // A transitive chain on one line of points 1/256 apart: cluster 0 (12
    // points), clusters 2 and 3 alternating (24 points), then cluster 1 (12
    // points, every fourth position). Pass 0 merges 0 with 2 and with 3;
    // pass 1 merges 1 with 2, which joins 3 to 1's component before the
    // turn of (1, 3), a pair eligible as the pass started.
    std::vector<double> xs;
    std::vector<int> labels;
    for (int k = 0; k < 12; ++k) {
        xs.push_back(k / 256.0);
        labels.push_back(0);
    }
    for (int k = 0; k < 24; ++k) {
        xs.push_back((12 + k) / 256.0);
        labels.push_back(k % 2 == 0 ? 2 : 3);
    }
    for (int k = 0; k < 12; ++k) {
        xs.push_back((36 + 4 * k) / 256.0);
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const dissim::matrix_neighborhood source(m);
    const cluster_labels input = make_labels(labels);
    const refine_result want = reference::merge_clusters(source, input, {});
    ASSERT_EQ(want.merges.size(), 3u);
    EXPECT_EQ(want.merges[2].cluster_a, 1);
    EXPECT_EQ(want.merges[2].cluster_b, 2);
    EXPECT_EQ(want.labels.cluster_count, 1u);

    // Round-robin thirds of one line are mutually adjacent and equally
    // dense. Under max_merged_fraction 0.7, pass 0 merges 0 and 1 into 2/3
    // of the points; (0, 2), eligible as the pass started, would make all
    // of them.
    std::vector<double> line;
    std::vector<int> thirds;
    for (int k = 0; k < 30; ++k) {
        line.push_back(k / 256.0);
        thirds.push_back(k % 3);
    }
    const auto m3 = line_matrix(line);
    const dissim::matrix_neighborhood source3(m3);
    const cluster_labels input3 = make_labels(thirds);
    refine_options capped;
    capped.max_merged_fraction = 0.7;
    const refine_result want3 = reference::merge_clusters(source3, input3, capped);
    ASSERT_EQ(want3.merges.size(), 1u);
    EXPECT_EQ(want3.labels.cluster_count, 2u);

    for (const std::size_t lanes : {1, 2, 4}) {
        const std::string at = std::to_string(lanes) + " lanes";
        expect_same_merge(merge_clusters(source, input, {}, {}, lanes), want, "chain at " + at);
        expect_same_merge(merge_clusters(source3, input3, capped, {}, lanes), want3,
                          "max_merged_fraction at " + at);
    }
}

/// The wrapped source, except that scoring a whole row of \p slow (an
/// unbounded row query) first sleeps: at two lanes or more, later rows of
/// its cluster's D(c) are scored before that row.
class slow_row_source final : public dissim::neighborhood_source {
public:
    slow_row_source(const dissim::neighborhood_source& inner, std::size_t slow)
        : inner_(inner), slow_(slow) {}

    std::size_t size() const override { return inner_.size(); }
    using neighborhood_source::dissimilarities;
    void dissimilarities(std::size_t i, std::span<const std::size_t> js, double ceiling,
                         std::span<double> out, dissim::row_counts& counts) const override {
        if (i == slow_ && std::isinf(ceiling)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        inner_.dissimilarities(i, js, ceiling, out, counts);
    }
    std::vector<std::uint32_t> neighbors_within(std::size_t i, double epsilon) const override {
        return inner_.neighbors_within(i, epsilon);
    }
    void prepare_within(double epsilon, std::size_t threads) const override {
        inner_.prepare_within(epsilon, threads);
    }
    std::size_t knn_cap() const override { return inner_.knn_cap(); }
    std::vector<double> kth_nn(std::size_t k, std::size_t threads) const override {
        return inner_.kth_nn(k, threads);
    }
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads) const override {
        return inner_.kth_nn_many(k_max, threads);
    }

private:
    const dissim::neighborhood_source& inner_;
    std::size_t slow_;
};

TEST(MergeLanes, ClusterStatsFoldInRowOrderWhicheverBlockFinishesFirst) {
    // Cluster 0: member 0 far away (every pair in row 0 of D(c) is 1.0)
    // and 255 members packed k * 2^-56 apart. In row order the sum is 255
    // after row 0, and every later value is below half an ulp of it, so
    // the mean is exactly 1/128; any later row folded first leaves its sum
    // behind and lifts the mean above 1/128. Cluster 1 (3 members,
    // 2^-8 apart) lies exactly 1/128 from the packed members. At a mean of
    // 1/128 neither condition holds; above it, condition 1 merges.
    std::vector<double> xs{2.0};
    const double packed = std::ldexp(1.0, -56);
    for (int k = 1; k < 256; ++k) {
        xs.push_back(k * packed);
    }
    std::vector<int> labels(xs.size(), 0);
    const double near = 1.0 / 128 + 255 * packed;
    for (const double offset : {0.0, 1.0 / 256, 1.0 / 128}) {
        xs.push_back(near + offset);
        labels.push_back(1);
    }
    const auto m = line_matrix(xs);
    const dissim::matrix_neighborhood dense(m);
    const cluster_labels input = make_labels(labels);
    const refine_result want = reference::merge_clusters(dense, input, {});
    ASSERT_TRUE(want.merges.empty());
    const slow_row_source slow(dense, 0);
    for (const std::size_t lanes : {1, 2, 4}) {
        const obs::scoped_recorder recorder;
        expect_same_merge(merge_clusters(slow, input, {}, {}, lanes), want,
                          std::to_string(lanes) + " lanes");
        EXPECT_EQ(lanes_started(recorder), lanes > 1) << lanes << " lanes";
    }
    // The matrix itself reads rather than scores its rows, so its D(c)
    // folds on one lane (and the link search is below the floor).
    const obs::scoped_recorder recorder;
    expect_same_merge(merge_clusters(dense, input, {}, {}, 4), want, "matrix at 4 lanes");
    EXPECT_FALSE(lanes_started(recorder));
}

TEST(MergeLanes, ObservedLanesCountWhatTheUnobservedSerialPassScores) {
    // Row-query counts are summed per fan-out or lane block and published
    // once; an observed two-lane pass must yield the serial unobserved
    // labels, and dissim.sparse.ondemand_pairs_total must equal the pairs
    // that pass scored.
    const auto values = population(1, 400, 91);
    dissim::sparse_build_options opts;
    opts.knn_cap = knn_k_max(values.size());
    const dissim::sparse_neighborhood sparse(values, opts);
    rng r(13);
    const cluster_labels labels = few_clusters(values.size(), 2, r);
    const std::uint64_t before = sparse.pairs_scored();
    const refine_result serial = merge_clusters(sparse, labels, {}, {}, 1);
    const std::uint64_t scored = sparse.pairs_scored() - before;
    ASSERT_GT(scored, 0u);
    const obs::scoped_recorder recorder;
    const refine_result observed = merge_clusters(sparse, labels, {}, {}, 2);
    expect_same_merge(observed, serial, "observed at 2 lanes");
    EXPECT_TRUE(lanes_started(recorder));
    EXPECT_EQ(counter(recorder, "dissim.sparse.ondemand_pairs_total"),
              static_cast<double>(scored));
}

}  // namespace
}  // namespace ftc::cluster
