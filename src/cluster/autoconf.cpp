#include "cluster/autoconf.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "mathx/kneedle.hpp"
#include "mathx/smoothing.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::cluster {

namespace {

/// Build the strictly-increasing ECDF curve of (already sorted) samples:
/// points (value, fraction <= value), duplicate values collapsed.
mathx::curve ecdf_curve(const std::vector<double>& sorted) {
    mathx::curve out;
    const double n = static_cast<double>(sorted.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i + 1 < sorted.size() && sorted[i + 1] <= sorted[i]) {
            continue;
        }
        out.xs.push_back(sorted[i]);
        out.ys.push_back(static_cast<double>(i + 1) / n);
    }
    return out;
}

/// Largest single-step rise of a sorted sequence ("the value of the delta-d
/// at the maximum of delta-E_k" — Algorithm 1's sharpness measure).
double max_step(const std::vector<double>& values) {
    double best = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
        best = std::max(best, values[i] - values[i - 1]);
    }
    return best;
}

/// Batched k-NN extraction: returns the per-element k-NN curves for every
/// candidate k = 2..k_max (index 0 ↔ k = 2) in one call, so the backing
/// neighborhood source can serve all candidates from one batch
/// (neighborhood_source::kth_nn_many — a single row scan on a matrix, a
/// column read of the capped lists on a sparse source) instead of
/// re-scanning per candidate. The curves are the same values a per-k
/// extraction yields, so the selected epsilon is unchanged.
using knn_batch_fn =
    std::function<std::vector<std::vector<double>>(std::size_t k_max, std::size_t threads)>;

autoconf_result configure_from_knn(const knn_batch_fn& knn_batch, std::size_t n,
                                   const autoconf_options& options) {
    obs::span sp("cluster.autoconf");
    sp.count("n", n);
    autoconf_result result;
    result.min_samples =
        std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(std::log(
                                     static_cast<double>(std::max<std::size_t>(n, 3))))));

    const std::size_t k_max = knn_k_max(n);

    // Evaluate every candidate k and keep the sharpest-knee curve. The
    // smoothing strength scales with the sample count so that small traces
    // are not over-smoothed (the Whittaker penalty acts per point).
    //
    // All candidate curves come from one batched k-NN extraction (a single
    // source batch query on the full lane budget); the sweep then fans out
    // over k for the sorting/smoothing work. Each candidate writes only
    // its own pre-allocated slot and the selection below is a serial
    // reduction over the finished vector, so the chosen epsilon does not
    // depend on the thread count.
    const std::size_t sweep_threads = util::resolve_threads(options.threads);
    const std::size_t sweep_lanes = std::min(sweep_threads, k_max - 1);
    std::vector<std::vector<double>> curves = knn_batch(k_max, sweep_threads);
    expects(curves.size() == k_max - 1, "configure_from_knn: curve count mismatch");
    result.candidates.resize(k_max - 1);
    {
        obs::span sweep_span("cluster.epsilon_sweep");
        sweep_span.count("candidates", k_max - 1);
        util::parallel_for(k_max - 1, 1, sweep_lanes, [&](std::size_t begin, std::size_t end) {
            for (std::size_t idx = begin; idx < end; ++idx) {
                k_candidate& cand = result.candidates[idx];
                cand.k = idx + 2;
                cand.knn_sorted = std::move(curves[idx]);
                std::sort(cand.knn_sorted.begin(), cand.knn_sorted.end());
                const double lambda =
                    options.smoothing_lambda *
                    std::max(0.04, static_cast<double>(cand.knn_sorted.size()) / 1000.0);
                cand.smoothed = mathx::whittaker_smooth(cand.knn_sorted, lambda);
                // Smoothing of a monotone sequence can introduce tiny decreases
                // at the ends; restore monotonicity for a well-formed ECDF.
                for (std::size_t i = 1; i < cand.smoothed.size(); ++i) {
                    cand.smoothed[i] = std::max(cand.smoothed[i], cand.smoothed[i - 1]);
                }
                cand.sharpness = max_step(cand.smoothed);
            }
        });
    }

    std::size_t best_idx = 0;
    for (std::size_t i = 1; i < result.candidates.size(); ++i) {
        if (result.candidates[i].sharpness > result.candidates[best_idx].sharpness) {
            best_idx = i;
        }
    }
    const k_candidate& best = result.candidates[best_idx];
    result.selected_k = best.k;

    const mathx::curve curve = ecdf_curve(best.smoothed);
    const mathx::kneedle_result knees = mathx::kneedle(
        curve, {.sensitivity = options.kneedle_sensitivity,
                .shape = mathx::curve_shape::concave_increasing});
    result.knees = knees.knees;
    if (const auto knee = knees.rightmost()) {
        result.epsilon = *knee;
        result.knee_found = true;
    } else {
        result.epsilon = options.fallback_epsilon;
        result.knee_found = false;
    }
    return result;
}

}  // namespace

std::size_t knn_k_max(std::size_t n) {
    return std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(std::log(static_cast<double>(n)))));
}

namespace {

/// True when \p pre is a usable kth_nn_many(k_max) result for an n-element
/// source: at least k_max curves of n entries each.
bool knn_shape_ok(const std::vector<std::vector<double>>* pre, std::size_t k_max,
                  std::size_t n) {
    if (pre == nullptr || pre->size() < k_max) {
        return false;
    }
    for (std::size_t k = 0; k < k_max; ++k) {
        if ((*pre)[k].size() != n) {
            return false;
        }
    }
    return true;
}

/// All candidate k-NN curves (k = 2..k_max): copied from the caller's
/// precomputed batch when shaped right, else one source query.
std::vector<std::vector<double>> candidate_curves(const dissim::neighborhood_source& source,
                                                  std::size_t k_max, std::size_t threads,
                                                  const autoconf_options& options) {
    if (knn_shape_ok(options.precomputed_knn, k_max, source.size())) {
        obs::counter_add("cluster.knn_reused_total", 1.0);
        return {options.precomputed_knn->begin() + 1,
                options.precomputed_knn->begin() + static_cast<long>(k_max)};
    }
    std::vector<std::vector<double>> all = source.kth_nn_many(k_max, threads);
    all.erase(all.begin());  // drop k = 1; candidates start at k = 2
    return all;
}

}  // namespace

autoconf_result auto_configure(const dissim::neighborhood_source& source,
                               const autoconf_options& options) {
    expects(source.size() >= 3, "auto_configure: need at least 3 unique segments");
    return configure_from_knn(
        [&](std::size_t k_max, std::size_t threads) {
            return candidate_curves(source, k_max, threads, options);
        },
        source.size(), options);
}

autoconf_result auto_configure_trimmed(const dissim::neighborhood_source& source,
                                       double limit, const autoconf_options& options) {
    expects(source.size() >= 3, "auto_configure_trimmed: need at least 3 unique segments");
    auto trimmed_knn = [&](std::size_t k_max, std::size_t threads) {
        std::vector<std::vector<double>> curves =
            candidate_curves(source, k_max, threads, options);
        for (std::vector<double>& curve : curves) {
            std::vector<double> kept;
            for (double d : curve) {
                if (d < limit) {
                    kept.push_back(d);
                }
            }
            curve = std::move(kept);
        }
        return curves;
    };
    // The trimmed sample can degenerate; fall back to a fraction of the
    // previous knee so reclustering still tightens the density requirement.
    autoconf_options opts = options;
    opts.fallback_epsilon = limit * 0.5;
    autoconf_result result = configure_from_knn(trimmed_knn, source.size(), opts);
    if (!result.knee_found || result.epsilon >= limit) {
        result.epsilon = limit * 0.5;
        result.knee_found = false;
    }
    return result;
}

namespace {

/// True when one cluster holds more than \p fraction of the non-noise
/// points (the Sec. III-E oversize condition).
bool oversized(const cluster_labels& labels, std::size_t n, double fraction) {
    const std::size_t non_noise = n - labels.noise_count();
    if (non_noise == 0 || labels.cluster_count == 0) {
        return false;
    }
    std::vector<std::size_t> sizes(labels.cluster_count, 0);
    for (int l : labels.labels) {
        if (l != kNoise) {
            ++sizes[static_cast<std::size_t>(l)];
        }
    }
    const std::size_t largest = *std::max_element(sizes.begin(), sizes.end());
    return static_cast<double>(largest) > fraction * static_cast<double>(non_noise);
}

}  // namespace

auto_cluster_result auto_cluster(const dissim::neighborhood_source& source,
                                 const autoconf_options& options, double oversize_fraction,
                                 std::size_t max_reconfigurations) {
    expects(source.size() >= 3, "auto_cluster: need at least 3 unique segments");
    // One k-NN batch serves the first configuration, every
    // re-configuration and the undersize guard.
    const std::size_t k_max = knn_k_max(source.size());
    autoconf_options opts = options;
    std::vector<std::vector<double>> curves;
    if (!knn_shape_ok(options.precomputed_knn, k_max, source.size())) {
        curves = source.kth_nn_many(k_max, options.threads);
        opts.precomputed_knn = &curves;
    }
    auto_cluster_result out;
    out.config = auto_configure(source, opts);
    out.labels = dbscan(source, {out.config.epsilon, out.config.min_samples}, opts.threads);

    // Undersize guard: a micro-knee (near-duplicate values) can yield an
    // epsilon so small that no density core forms at all. Walk *up* through
    // the remaining knees — and finally the median 2-NN distance — until
    // DBSCAN produces at least one cluster.
    if (out.labels.cluster_count == 0) {
        std::vector<double> escalation = out.config.knees;
        // Median min_samples-NN distance: at that epsilon half the points
        // reach min_samples neighbours, so density cores must exist. For
        // n >= 3, min_samples == k_max: the last batched curve.
        expects(out.config.min_samples <= k_max,
                "auto_cluster: min_samples beyond the k-NN batch");
        std::vector<double> knnm = (*opts.precomputed_knn)[out.config.min_samples - 1];
        std::sort(knnm.begin(), knnm.end());
        escalation.push_back(knnm[knnm.size() / 2]);
        std::sort(escalation.begin(), escalation.end());
        for (double eps : escalation) {
            if (eps <= out.config.epsilon || out.reconfigurations >= max_reconfigurations) {
                continue;
            }
            const cluster_labels retry =
                dbscan(source, {eps, out.config.min_samples}, opts.threads);
            ++out.reconfigurations;
            if (retry.cluster_count > 0) {
                out.config.epsilon = eps;
                out.labels = retry;
                out.reclustered = true;
                break;
            }
        }
    }

    // Oversize guard (Sec. III-E): one cluster holding more than 60 % of the
    // non-noise segments means the detected knee was too far right; walk
    // down to the next smaller knee of the trimmed ECDF until densities
    // separate the data or the walk bottoms out.
    while (out.reconfigurations < max_reconfigurations &&
           oversized(out.labels, source.size(), oversize_fraction)) {
        const autoconf_result retry = auto_configure_trimmed(source, out.config.epsilon, opts);
        if (retry.epsilon >= out.config.epsilon || retry.epsilon <= 0.0) {
            break;  // no progress possible
        }
        cluster_labels retry_labels =
            dbscan(source, {retry.epsilon, retry.min_samples}, opts.threads);
        if (retry_labels.cluster_count == 0) {
            break;  // an oversized clustering beats no clustering at all
        }
        out.config = retry;
        out.labels = std::move(retry_labels);
        out.reclustered = true;
        ++out.reconfigurations;
    }
    obs::counter_add("cluster.reconfigurations_total",
                     static_cast<double>(out.reconfigurations));
    return out;
}

}  // namespace ftc::cluster
