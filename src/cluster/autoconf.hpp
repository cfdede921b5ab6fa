/// \file autoconf.hpp
/// Fully automated DBSCAN parameter selection (paper Sec. III-D,
/// Algorithm 1).
///
/// For k in 2..round(ln n), build the ECDF of the dissimilarities between
/// each unique segment and its k-th nearest neighbour, smooth it, and pick
/// the k whose curve has the sharpest knee (the largest single-step rise in
/// distance). Kneedle on that smoothed ECDF yields the rightmost knee,
/// which becomes epsilon. min_samples is round(ln n). auto_cluster extracts
/// the k-NN curves once per call and reuses them for every re-configuration.
#pragma once

#include <vector>

#include "cluster/dbscan.hpp"
#include "dissim/neighborhood.hpp"
#include "mathx/ecdf.hpp"

namespace ftc::cluster {

/// Tunables of the auto-configuration.
struct autoconf_options {
    /// Kneedle sensitivity S.
    double kneedle_sensitivity = 1.0;
    /// Whittaker smoothing strength (plays the role of the B-spline
    /// smoothness parameter s in Algorithm 1).
    double smoothing_lambda = 25.0;
    /// Fallback epsilon when no knee can be detected (degenerate inputs).
    double fallback_epsilon = 0.1;
    /// Worker threads for the k-candidate sweep, the k-NN extraction and
    /// DBSCAN's range preparation (0 = hardware concurrency, 1 = serial).
    /// Every candidate is evaluated independently, so the selected epsilon
    /// is identical at any setting. core::analyze overrides this with
    /// pipeline_options::threads.
    std::size_t threads = 1;
    /// Precomputed per-element k-NN curves — the output shape of
    /// neighborhood_source::kth_nn_many(knn_k_max(n)): curve [k-1] holds
    /// every element's k-th-NN dissimilarity, k = 1..k_max. When non-null
    /// and shaped for the source at hand, the sweep copies these instead
    /// of re-querying the source; the pipeline passes the curves it already
    /// extracted for a stage observer, which are bitwise the values the
    /// sweep would query (kth_nn_many is deterministic), so the selected
    /// epsilon is unchanged either way.
    /// Null, or a shape mismatch, falls back to the source query (made
    /// once per auto_cluster call). Not owned; must outlive the call.
    const std::vector<std::vector<double>>* precomputed_knn = nullptr;
};

/// The paper's candidate ceiling k_max = max(2, round(ln n)) — the number
/// of k-NN curves auto_configure evaluates for an n-element matrix, and
/// therefore the curve count a precomputed_knn must carry to be used.
std::size_t knn_k_max(std::size_t n);

/// Diagnostics of one k candidate (exposed for tests and the Fig. 2 bench).
struct k_candidate {
    std::size_t k = 0;
    double sharpness = 0.0;          ///< max single-step distance increase
    std::vector<double> knn_sorted;  ///< sorted k-NN dissimilarities
    std::vector<double> smoothed;    ///< Whittaker-smoothed sorted k-NN
};

/// Result of the epsilon auto-configuration.
struct autoconf_result {
    double epsilon = 0.0;
    std::size_t min_samples = 2;
    std::size_t selected_k = 2;
    bool knee_found = false;           ///< false -> fallback epsilon in use
    std::vector<double> knees;         ///< all Kneedle knees of selected curve
    std::vector<k_candidate> candidates;
};

/// Run Algorithm 1 on the neighborhood source of unique segments.
/// Throws ftc::precondition_error for sources with fewer than 3 elements,
/// and dissim::knn_cap_error when the source cannot serve k_max curves
/// (a sparse source built with too small a cap).
autoconf_result auto_configure(const dissim::neighborhood_source& source,
                               const autoconf_options& options = {});

inline autoconf_result auto_configure(const dissim::dissimilarity_matrix& matrix,
                                      const autoconf_options& options = {}) {
    return auto_configure(dissim::matrix_neighborhood(matrix), options);
}

/// Re-run the knee search on the ECDF trimmed to dissimilarities strictly
/// below \p limit (oversized-cluster guard, paper Sec. III-E). Falls back
/// to \p limit * 0.5 when the trimmed curve yields no knee.
autoconf_result auto_configure_trimmed(const dissim::neighborhood_source& source,
                                       double limit, const autoconf_options& options = {});

inline autoconf_result auto_configure_trimmed(const dissim::dissimilarity_matrix& matrix,
                                              double limit,
                                              const autoconf_options& options = {}) {
    return auto_configure_trimmed(dissim::matrix_neighborhood(matrix), limit, options);
}

/// Full clustering with the oversize guard: auto-configure, DBSCAN, and
/// while one cluster holds more than \p oversize_fraction of the non-noise
/// segments, re-configure on the ECDF trimmed to the current knee and
/// cluster again — walking down to the "next smaller knee" (Sec. III-E)
/// until the guard is satisfied or \p max_reconfigurations is exhausted.
/// Every step reads one k-NN batch: options.precomputed_knn when shaped
/// right, else one kth_nn_many(knn_k_max(n)) made here.
struct auto_cluster_result {
    cluster_labels labels;
    autoconf_result config;
    std::size_t reconfigurations = 0;  ///< oversize-guard iterations taken
    bool reclustered = false;          ///< oversize guard fired at least once
};

auto_cluster_result auto_cluster(const dissim::neighborhood_source& source,
                                 const autoconf_options& options = {},
                                 double oversize_fraction = 0.6,
                                 std::size_t max_reconfigurations = 10);

inline auto_cluster_result auto_cluster(const dissim::dissimilarity_matrix& matrix,
                                        const autoconf_options& options = {},
                                        double oversize_fraction = 0.6,
                                        std::size_t max_reconfigurations = 10) {
    return auto_cluster(dissim::matrix_neighborhood(matrix), options, oversize_fraction,
                        max_reconfigurations);
}

}  // namespace ftc::cluster
