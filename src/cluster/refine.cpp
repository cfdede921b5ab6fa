#include "cluster/refine.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ftc::cluster {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// A fan-out over fewer pairs starts no thread, and a link search's lane
/// block scores about this many. Starting and joining a lane costs about
/// 35 µs (GCC 12.2, shared 4-vCPU x86-64 VM), about what reading 16384
/// matrix cells takes and a small fraction of what scoring as many sparse
/// pairs takes (DESIGN.md §3.3).
constexpr std::size_t kBlockPairs = 16384;

std::size_t lanes_for(std::size_t pairs, std::size_t threads) {
    return pairs < kBlockPairs ? 1 : threads;
}

/// Per-cluster statistics needed by the merge conditions.
struct cluster_stats {
    std::vector<std::size_t> members;
    double mean_pairwise = 0.0;  ///< mean of D(c)
    double max_pairwise = 0.0;   ///< d_max: cluster extent
    double minmed = 0.0;         ///< median 1-NN distance within the cluster
};

cluster_stats compute_stats(const dissim::neighborhood_source& source,
                            std::vector<std::size_t> members, std::size_t threads,
                            const deadline& dl) {
    dl.check("cluster refinement");
    cluster_stats s;
    s.members = std::move(members);
    const std::size_t m = s.members.size();
    if (m < 2) {
        return s;
    }
    // Each intra pair is scored once, by rows of D(c): row a holds the pairs
    // (a, b > a). A lane scores a row into its buffer, then waits until
    // every earlier row is folded and folds it: the running sum adds in the
    // upper-triangle row-major order mean() would, the strict > keeps
    // max_value()'s first maximum, and every value updates the 1-NN
    // distance of both ends, whatever the lane count. Lanes claim one row
    // at a time, in order, so the lowest unfolded row is always being
    // scored or folded; one lane takes every row as one block. A lane's
    // buffer is one row, the m - 1 doubles the serial pass held, and is as
    // untracked. A source that reads stored values folds on one lane: its
    // fold costs more than its reads, so lanes would only wait on each
    // other (DESIGN.md §3.3).
    const std::size_t lanes =
        source.scores_rows() ? lanes_for(m * (m - 1) / 2, threads) : std::size_t{1};
    const std::span<const std::size_t> all(s.members);
    std::vector<double> one_nn(m, std::numeric_limits<double>::max());
    double sum = 0.0;
    double max_d = -std::numeric_limits<double>::infinity();
    dissim::row_counts counts;  // the folded rows' work, published once
    std::mutex fold_mutex;
    std::condition_variable fold_turn;
    std::size_t folded = 0;  // rows [0, folded) are folded
    bool failed = false;     // a lane threw: nothing more is folded
    util::parallel_for(
        m - 1, lanes > 1 ? 1 : m - 1, lanes, [&](std::size_t begin, std::size_t end) {
            std::vector<double> row(m - begin - 1);
            for (std::size_t a = begin; a < end; ++a) {
                const std::span<double> out(row.data(), m - a - 1);
                dissim::row_counts work;
                try {
                    dl.check("cluster refinement");
                    source.dissimilarities(s.members[a], all.subspan(a + 1), kUnbounded, out,
                                           work);
                } catch (...) {
                    {
                        const std::lock_guard<std::mutex> lock(fold_mutex);
                        failed = true;
                    }
                    fold_turn.notify_all();
                    throw;
                }
                std::unique_lock<std::mutex> lock(fold_mutex);
                fold_turn.wait(lock, [&] { return folded == a || failed; });
                if (failed) {
                    return;
                }
                for (std::size_t k = 0; k < out.size(); ++k) {
                    const double d = out[k];
                    sum += d;
                    if (d > max_d) {
                        max_d = d;
                    }
                    one_nn[a] = std::min(one_nn[a], d);
                    one_nn[a + 1 + k] = std::min(one_nn[a + 1 + k], d);
                }
                counts.add(work);
                folded = a + 1;
                lock.unlock();
                fold_turn.notify_all();
            }
        });
    counts.publish();
    s.mean_pairwise = sum / static_cast<double>(m * (m - 1) / 2);
    s.max_pairwise = max_d;
    s.minmed = median(one_nn);
    return s;
}

/// Median of the dissimilarities within \p eps around member \p link inside
/// the cluster (rho_eps of Sec. III-F); 0 when no neighbour lies within eps.
double eps_density(const dissim::neighborhood_source& source, const cluster_stats& cluster,
                   std::size_t link, double eps) {
    // Values at or beyond the next double above eps are not within it, so
    // the row query may leave them unscored.
    std::vector<double> d(cluster.members.size());
    source.dissimilarities(link, cluster.members, std::nextafter(eps, kUnbounded), d);
    std::vector<double> within;
    for (std::size_t k = 0; k < d.size(); ++k) {
        if (cluster.members[k] != link && d[k] <= eps) {
            within.push_back(d[k]);
        }
    }
    return median(within);
}

/// What the merge conditions ask of a cluster pair's link. Neither holds
/// unless d_link lies below max(mean D) (condition 1) or the closeness
/// (condition 2), so the link search only looks below the larger of the
/// two, the ceiling (DESIGN.md §3.3).
struct link_bounds {
    double max_mean = 0.0;
    bool has_closeness = false;
    double closeness = 0.0;
    double ceiling = 0.0;
};

link_bounds bounds_of(const cluster_stats& ci, const cluster_stats& cj) {
    link_bounds b;
    b.max_mean = std::max(ci.mean_pairwise, cj.mean_pairwise);
    b.has_closeness = ci.mean_pairwise > 0.0 && cj.mean_pairwise > 0.0;
    b.closeness = b.has_closeness
                      ? 0.5 * (ci.minmed / ci.mean_pairwise + cj.minmed / cj.mean_pairwise)
                      : 0.0;
    b.ceiling = std::max(b.max_mean, b.closeness);
    return b;
}

/// A link candidate: cross pair (a, b) at dissimilarity d. A search that
/// finds nothing below its ceiling leaves d at the ceiling.
struct link {
    double d = 0.0;
    std::size_t a = 0;
    std::size_t b = 0;
};

/// Link search over rows [r0, r1) of \p ci against \p cj: the first
/// closest cross pair below \p ceiling in row-major order. Each row query
/// looks only below the running minimum, and the strict < keeps the first
/// arg-min.
link search_rows(const dissim::neighborhood_source& source, const cluster_stats& ci,
                 std::size_t r0, std::size_t r1, const cluster_stats& cj, double ceiling,
                 std::vector<double>& row, dissim::row_counts& counts) {
    link best{ceiling, ci.members.front(), cj.members.front()};
    row.resize(cj.members.size());
    for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t a = ci.members[r];
        source.dissimilarities(a, cj.members, best.d, row, counts);
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (row[k] < best.d) {
                best = {row[k], a, cj.members[k]};
            }
        }
    }
    return best;
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

}  // namespace

refine_result merge_clusters(const dissim::neighborhood_source& source,
                             const cluster_labels& input, const refine_options& options,
                             const deadline& dl, std::size_t threads) {
    refine_result out;
    out.labels = input;
    if (input.cluster_count < 2) {
        return out;
    }
    threads = util::resolve_threads(threads);

    std::vector<cluster_stats> stats;
    stats.reserve(input.cluster_count);
    for (std::vector<std::size_t>& members : input.members()) {
        stats.push_back(compute_stats(source, std::move(members), threads, dl));
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
    auto eligible = [&](std::size_t i, std::size_t j) {
        if (forest.find(i) == forest.find(j)) {
            return false;
        }
        if (options.max_merged_fraction <= 0.0) {
            return true;
        }
        const std::size_t combined =
            component_size[forest.find(i)] + component_size[forest.find(j)];
        return static_cast<double>(combined) <=
               options.max_merged_fraction * static_cast<double>(non_noise);
    };
    auto record_merge = [&](std::size_t i, std::size_t j) {
        const std::size_t ri = forest.find(i);
        const std::size_t rj = forest.find(j);
        const std::size_t combined = component_size[ri] + component_size[rj];
        forest.unite(i, j);
        component_size[forest.find(i)] = combined;
    };
    std::vector<std::size_t> partners;
    std::vector<link> found;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        dl.check("cluster refinement");
        const cluster_stats& ci = stats[i];
        if (ci.members.size() < 2) {
            continue;  // degenerate clusters carry no density information
        }
        // Every pair (i, j) eligible as the pass starts searches its link
        // on the lanes, in blocks of c_i's rows. A merge only unites
        // components and grows them, so no pair becomes eligible during
        // the pass; the merges below re-check eligibility in j order and
        // skip the searches a serial pass would not have run.
        partners.clear();
        std::size_t pairs = 0;
        for (std::size_t j = i + 1; j < stats.size(); ++j) {
            if (stats[j].members.size() >= 2 && eligible(i, j)) {
                partners.push_back(j);
                pairs += ci.members.size() * stats[j].members.size();
            }
        }
        if (partners.empty()) {
            continue;
        }
        const std::size_t blocks = (ci.members.size() - 1) / kLinkBlockRows + 1;
        found.assign(partners.size() * blocks, link{});
        const std::size_t grain =
            std::max<std::size_t>(1, kBlockPairs * found.size() / pairs);
        util::parallel_for(
            found.size(), grain, lanes_for(pairs, threads),
            [&](std::size_t begin, std::size_t end) {
                dissim::row_counts counts;
                std::vector<double> row;
                for (std::size_t t = begin; t < end; ++t) {
                    dl.check("cluster refinement");
                    const cluster_stats& cj = stats[partners[t / blocks]];
                    const std::size_t r0 = t % blocks * kLinkBlockRows;
                    found[t] = search_rows(source, ci, r0,
                                           std::min(r0 + kLinkBlockRows, ci.members.size()),
                                           cj, bounds_of(ci, cj).ceiling, row, counts);
                }
                counts.publish();
            });

        for (std::size_t p = 0; p < partners.size(); ++p) {
            const std::size_t j = partners[p];
            if (!eligible(i, j)) {
                continue;  // a merge earlier in this pass joined or grew the pair
            }
            const cluster_stats& cj = stats[j];
            const link_bounds bounds = bounds_of(ci, cj);
            // Link segments: the blocks reduce in row order with the same
            // strict <, to the first closest cross pair of the whole search.
            link best{bounds.ceiling, ci.members.front(), cj.members.front()};
            for (std::size_t b = 0; b < blocks; ++b) {
                const link& candidate = found[p * blocks + b];
                if (candidate.d < best.d) {
                    best = candidate;
                }
            }
            if (!(best.d < bounds.ceiling)) {
                continue;  // no cross pair below the ceiling: neither condition holds
            }

            // Condition 1: very close by + similar local eps-density.
            bool merged = false;
            if (best.d < bounds.max_mean) {
                const cluster_stats& smaller =
                    ci.members.size() <= cj.members.size() ? ci : cj;
                const double eps = smaller.max_pairwise / 2.0;
                const double rho_i = eps_density(source, ci, best.a, eps);
                const double rho_j = eps_density(source, cj, best.b, eps);
                if (std::abs(rho_i - rho_j) < options.eps_rho_threshold) {
                    record_merge(i, j);
                    out.merges.push_back({static_cast<int>(i), static_cast<int>(j),
                                          merge_reason::condition1, best.d});
                    merged = true;
                }
            }
            // Condition 2: somewhat close by + similar whole-cluster density.
            if (!merged && bounds.has_closeness && best.d < bounds.closeness &&
                std::abs(ci.minmed - cj.minmed) < options.neighbor_density_threshold) {
                record_merge(i, j);
                out.merges.push_back({static_cast<int>(i), static_cast<int>(j),
                                      merge_reason::condition2, best.d});
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

refine_result split_clusters(const cluster_labels& input,
                             const std::vector<std::size_t>& occurrence_counts,
                             const refine_options& options) {
    expects(occurrence_counts.size() == input.labels.size(),
            "split_clusters: occurrence count per labelled element required");
    refine_result out;
    out.labels = input;

    int next_cluster = static_cast<int>(input.cluster_count);
    for (std::size_t c = 0; c < input.cluster_count; ++c) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < input.labels.size(); ++i) {
            if (input.labels[i] == static_cast<int>(c)) {
                members.push_back(i);
            }
        }
        if (members.size() < 3) {
            continue;
        }
        // |c| counts the trace segments in the cluster (every occurrence).
        std::size_t total_occurrences = 0;
        std::vector<double> counts;
        counts.reserve(members.size());
        for (std::size_t m : members) {
            total_occurrences += occurrence_counts[m];
            counts.push_back(static_cast<double>(occurrence_counts[m]));
        }
        const double pivot = std::log(static_cast<double>(total_occurrences));
        const double pr = percent_rank(counts, pivot);
        const double sigma = stddev(counts);
        if (pr > options.percent_rank_threshold && sigma > pivot) {
            // Polarized occurrences: split off the high-frequency values.
            split_record rec;
            rec.cluster = static_cast<int>(c);
            rec.pivot = pivot;
            for (std::size_t m : members) {
                if (static_cast<double>(occurrence_counts[m]) > pivot) {
                    out.labels.labels[m] = next_cluster;
                    ++rec.high_side;
                } else {
                    ++rec.low_side;
                }
            }
            if (rec.high_side > 0 && rec.low_side > 0) {
                ++next_cluster;
                out.splits.push_back(rec);
            } else {
                // Nothing actually moved (all on one side): revert.
                for (std::size_t m : members) {
                    out.labels.labels[m] = static_cast<int>(c);
                }
            }
        }
    }
    out.labels.cluster_count = static_cast<std::size_t>(next_cluster);
    return out;
}

refine_result refine(const dissim::neighborhood_source& source, const cluster_labels& input,
                     const std::vector<std::size_t>& occurrence_counts,
                     const refine_options& options, const deadline& dl,
                     std::size_t threads) {
    obs::span sp("cluster.refine");
    sp.count("input_clusters", input.cluster_count);
    refine_result merged = merge_clusters(source, input, options, dl, threads);
    refine_result split = split_clusters(merged.labels, occurrence_counts, options);
    refine_result out;
    out.labels = std::move(split.labels);
    out.merges = std::move(merged.merges);
    out.splits = std::move(split.splits);
    sp.count("merges", out.merges.size());
    sp.count("splits", out.splits.size());
    obs::counter_add("cluster.refine_merges_total", static_cast<double>(out.merges.size()));
    obs::counter_add("cluster.refine_splits_total", static_cast<double>(out.splits.size()));
    return out;
}

}  // namespace ftc::cluster
