/// \file refine.hpp
/// Cluster refinement (paper Sec. III-F): merge overclassified clusters
/// that are near and similarly dense, and split underclassified clusters
/// with extremely polarized value occurrences. The merge pass scores each
/// pair at most once through neighborhood_source row queries, and searches
/// link pairs only below the merge ceiling, so a sparse source never
/// materializes more than one row per lane.
#pragma once

#include <vector>

#include "cluster/dbscan.hpp"
#include "dissim/neighborhood.hpp"
#include "util/stopwatch.hpp"

namespace ftc::cluster {

/// Thresholds of the refinement heuristics (paper values).
struct refine_options {
    /// Condition 1: max difference of the epsilon-densities around the two
    /// link segments.
    double eps_rho_threshold = 0.01;
    /// Condition 2: max difference of the clusters' median 1-NN distances.
    double neighbor_density_threshold = 0.002;
    /// Split: required percent rank of F = ln|c| among the value counts.
    double percent_rank_threshold = 95.0;
    /// When positive, reject merges whose combined cluster would hold more
    /// than this fraction of all non-noise elements. The pipeline enables
    /// this (with the Sec. III-E oversize fraction) after the oversized-
    /// cluster guard re-ran, so refinement cannot undo the guard's work.
    double max_merged_fraction = 0.0;
};

/// Why two clusters were merged (reported for diagnostics).
enum class merge_reason { condition1, condition2 };

/// One applied merge.
struct merge_record {
    int cluster_a = 0;
    int cluster_b = 0;
    merge_reason reason = merge_reason::condition1;
    double link_dissimilarity = 0.0;
};

/// One applied split.
struct split_record {
    int cluster = 0;
    double pivot = 0.0;          ///< F = ln|c|
    std::size_t low_side = 0;    ///< values with occurrence count <= F
    std::size_t high_side = 0;   ///< values with occurrence count > F
};

/// Refinement outcome: re-labelled clustering plus an audit trail.
struct refine_result {
    cluster_labels labels;
    std::vector<merge_record> merges;
    std::vector<split_record> splits;
};

/// Rows of c_i one link search of merge_clusters scores per block. The
/// blocks, never the lanes, fix which cross pairs a search scores, so the
/// work counts are the same at every lane count.
inline constexpr std::size_t kLinkBlockRows = 64;

/// Merge pass. \p source indexes the same unique segments the labels refer
/// to. Merging is transitive: merge edges found in one sweep are combined
/// with union-find. Only intra- and inter-cluster pair dissimilarities are
/// read, through row queries: each intra pair once, and cross pairs only
/// below the merge ceiling (DESIGN.md §3.3), which lets a sparse source
/// skip most of them by their length bound. The row queries run on
/// \p threads lanes (0 = hardware concurrency), by rows and blocks that do
/// not depend on the lane count, so the result and the work counts are the
/// same at every lane count. \p dl is polled once per cluster, row and
/// block, never per pair.
refine_result merge_clusters(const dissim::neighborhood_source& source,
                             const cluster_labels& input, const refine_options& options = {},
                             const deadline& dl = {}, std::size_t threads = 1);

inline refine_result merge_clusters(const dissim::dissimilarity_matrix& matrix,
                                    const cluster_labels& input,
                                    const refine_options& options = {}) {
    return merge_clusters(dissim::matrix_neighborhood(matrix), input, options);
}

/// Split pass. \p occurrence_counts[i] is the number of trace segments
/// carrying unique value i (|b_i| in the paper).
refine_result split_clusters(const cluster_labels& input,
                             const std::vector<std::size_t>& occurrence_counts,
                             const refine_options& options = {});

/// Merge (on \p threads lanes) followed by split (the paper's refinement
/// order). Throws interrupted_error on a pending stop request and
/// budget_exceeded_error once \p dl expires.
refine_result refine(const dissim::neighborhood_source& source, const cluster_labels& input,
                     const std::vector<std::size_t>& occurrence_counts,
                     const refine_options& options = {}, const deadline& dl = {},
                     std::size_t threads = 1);

inline refine_result refine(const dissim::dissimilarity_matrix& matrix,
                            const cluster_labels& input,
                            const std::vector<std::size_t>& occurrence_counts,
                            const refine_options& options = {}) {
    return refine(dissim::matrix_neighborhood(matrix), input, occurrence_counts, options);
}

}  // namespace ftc::cluster
