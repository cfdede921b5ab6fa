#include "cluster/dbscan.hpp"

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"

namespace ftc::cluster {

std::size_t cluster_labels::noise_count() const {
    std::size_t n = 0;
    for (int l : labels) {
        if (l == kNoise) {
            ++n;
        }
    }
    return n;
}

std::vector<std::vector<std::size_t>> cluster_labels::members() const {
    std::vector<std::vector<std::size_t>> out(cluster_count);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] != kNoise) {
            out[static_cast<std::size_t>(labels[i])].push_back(i);
        }
    }
    return out;
}

cluster_labels dbscan(const dissim::neighborhood_source& source, const dbscan_params& params,
                      std::size_t threads) {
    expects(params.epsilon >= 0.0, "dbscan: epsilon must be non-negative");
    expects(params.min_samples >= 1, "dbscan: min_samples must be at least 1");

    obs::span sp("cluster.dbscan");
    const std::size_t n = source.size();
    sp.count("n", n);
    // All range work of the run happens here, on the lanes; the BFS below
    // only reads.
    source.prepare_within(params.epsilon, threads);
    cluster_labels result;
    result.labels.assign(n, kNoise);
    std::vector<bool> visited(n, false);
    // A point enters the queue at most once over the whole run: a later
    // copy would find it labelled and visited and do nothing, and the
    // queue empties between clusters. expand_within appends only the
    // neighbours whose queued bit is clear, ids ascending — the order the
    // historical row scan enqueued them in — and the bits are set here.
    std::vector<std::uint64_t> queued((n + 63) / 64, 0);
    std::vector<std::uint32_t> queue;
    const auto expand = [&](std::size_t p) {
        const std::size_t before = queue.size();
        const std::size_t count =
            source.expand_within(p, params.epsilon, params.min_samples, queued, queue);
        for (std::size_t k = before; k < queue.size(); ++k) {
            queued[queue[k] / 64] |= std::uint64_t{1} << (queue[k] % 64);
        }
        return count >= params.min_samples;
    };

    int next_cluster = 0;
    obs::progress_stage("cluster.dbscan", n);
    for (std::size_t i = 0; i < n; ++i) {
        obs::progress_add(1);
        if (visited[i]) {
            continue;
        }
        visited[i] = true;
        queue.clear();
        if (!expand(i)) {
            continue;  // stays noise unless later reached as a border point
        }
        const int cluster_id = next_cluster++;
        result.labels[i] = cluster_id;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const std::size_t q = queue[head];
            if (result.labels[q] == kNoise) {
                result.labels[q] = cluster_id;  // border or newly reached point
            }
            if (visited[q]) {
                continue;
            }
            visited[q] = true;
            expand(q);  // a core point queues its fresh neighbours
        }
    }
    result.cluster_count = static_cast<std::size_t>(next_cluster);
    if (sp.enabled()) {
        sp.count("clusters", result.cluster_count);
        sp.count("noise", result.noise_count());
    }
    obs::counter_add("cluster.dbscan_runs_total", 1.0);
    return result;
}

}  // namespace ftc::cluster
