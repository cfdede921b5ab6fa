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
    // queue empties between clusters.
    std::vector<bool> queued(n, false);
    std::vector<std::uint32_t> queue;
    const auto enqueue = [&](const std::vector<std::uint32_t>& ids) {
        for (const std::uint32_t id : ids) {
            if (!queued[id]) {
                queued[id] = true;
                queue.push_back(id);
            }
        }
    };

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
        queue.clear();
        enqueue(seeds);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const std::size_t q = queue[head];
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
                enqueue(q_neighbours);  // q is a core point: expand through it
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

}  // namespace ftc::cluster
