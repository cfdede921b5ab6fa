/// \file dbscan.hpp
/// DBSCAN over a precomputed neighborhood source (Ester, Kriegel, Sander,
/// Xu — KDD 1996), as used in paper Sec. III-E.
///
/// DBSCAN needs no target cluster count, makes no shape assumptions and
/// treats outliers as noise — the properties that make it fit for clustering
/// segments of unknown protocols. Its two parameters epsilon and
/// min_samples come from the auto-configuration (autoconf.hpp). The
/// algorithm consumes only epsilon-range queries, so it runs against any
/// dissim::neighborhood_source — the dense matrix adapter and the sparse
/// engine produce identical labels (the neighbor sets are identical by the
/// source contract, and the BFS expansion order is a function of those
/// sets alone). Each run first lets the source prepare its range queries
/// at epsilon on the caller's lanes: the sparse engine scans there, the
/// matrix adapter marks each row's neighbours as bits. The expansion then
/// only reads and queues each point at most once: expand_within hands it a
/// point's neighbour count and its not-yet-queued neighbours, which the
/// matrix adapter reads word by word from the bit rows.
#pragma once

#include <cstddef>
#include <vector>

#include "dissim/neighborhood.hpp"

namespace ftc::cluster {

/// Label given to noise points.
inline constexpr int kNoise = -1;

/// DBSCAN parameters.
struct dbscan_params {
    double epsilon = 0.1;
    std::size_t min_samples = 2;  ///< neighbourhood size incl. the point itself
};

/// Clustering outcome: labels[i] is kNoise or a cluster id in
/// [0, cluster_count).
struct cluster_labels {
    std::vector<int> labels;
    std::size_t cluster_count = 0;

    /// Number of points labelled noise.
    std::size_t noise_count() const;

    /// Member indices per cluster id.
    std::vector<std::vector<std::size_t>> members() const;
};

/// Run DBSCAN. Density core: a point with at least min_samples points
/// (itself included) within epsilon. Border points join the first core
/// point that reaches them; unreached points are noise. The source's
/// prepare_within(epsilon, threads) runs first; the expansion itself is
/// serial, so the labels do not depend on \p threads.
cluster_labels dbscan(const dissim::neighborhood_source& source, const dbscan_params& params,
                      std::size_t threads = 1);

/// Convenience adapter: run against a dissimilarity matrix directly.
inline cluster_labels dbscan(const dissim::dissimilarity_matrix& matrix,
                             const dbscan_params& params) {
    return dbscan(dissim::matrix_neighborhood(matrix), params);
}

}  // namespace ftc::cluster
