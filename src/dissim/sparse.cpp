#include "dissim/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "dissim/kernel.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

namespace {

/// Ascending (d, id) — the storage order of capped lists.
bool neighbor_less(const neighbor& a, const neighbor& b) {
    return a.d < b.d || (a.d == b.d && a.id < b.id);
}

/// Ascending id — the storage order of prepared arrays.
bool id_less(const neighbor& a, const neighbor& b) {
    return a.id < b.id;
}

constexpr const char* kCacheCharge = "dissim.sparse.cache";

/// Max-heap comparator over the candidate heap (largest kept distance on
/// top — the prune ceiling). Plain distance order: replacement is strict
/// (f < top), so equal-valued candidates never churn the heap.
bool heap_less(const neighbor& a, const neighbor& b) {
    return a.d < b.d;
}

}  // namespace

float sparse_neighborhood::length_lower_bound(std::size_t len_a, std::size_t len_b) {
    if (len_a == len_b) {
        return 0.0f;
    }
    const std::size_t m = std::min(len_a, len_b);
    const std::size_t n = std::max(len_a, len_b);
    // d(a, b) = (m·d_min + (n−m)·p)/n with p = 1 − (m/n)(1−d_min) is
    // monotone increasing in d_min ∈ [0, 1]; at d_min = 0 it evaluates to
    // ((n−m)/n)² — the length lower bound (derivation in DESIGN.md §13).
    const double shorter = static_cast<double>(m);
    const double longer = static_cast<double>(n);
    const double diff = (longer - shorter) / longer;
    float bound = static_cast<float>(diff * diff);
    // Stored values are doubles narrowed to f32 by round-to-nearest, which
    // is monotone — but the bound itself is also rounded, and the kernel's
    // sum chain carries its own double rounding (~1e-13 relative). Deflate
    // by two float ulps (~1.2e-7 relative) to make the bound strictly
    // conservative against both; pruning must never discard a pair the
    // dense matrix would keep.
    bound = std::nextafterf(std::nextafterf(bound, 0.0f), 0.0f);
    return bound > 0.0f ? bound : 0.0f;
}

template <typename Visit>
std::pair<std::uint64_t, std::uint64_t> sparse_neighborhood::walk_buckets(
    std::size_t home, std::size_t len, Visit&& visit) const {
    // Two-pointer walk outward from the home bucket in ascending
    // lower-bound order (LB is monotone in the length gap on either side,
    // so the frontier minimum is always one of the two next buckets; ties
    // prefer the shorter side to fix the visit order). The first refused
    // bucket ends the walk: every unvisited bucket's bound is >= the
    // refused one's. Returns {pruned buckets, points inside them}.
    const std::size_t nb = bucket_len_.size();
    std::size_t down = home;      // next down candidate is down-1
    std::size_t up = home + 1;    // next up candidate is up
    constexpr float kInf = std::numeric_limits<float>::infinity();
    if (visit(home, 0.0f)) {
        while (down > 0 || up < nb) {
            const float lb_down =
                down > 0 ? length_lower_bound(bucket_len_[down - 1], len) : kInf;
            const float lb_up = up < nb ? length_lower_bound(len, bucket_len_[up]) : kInf;
            if (lb_down <= lb_up) {
                if (!visit(down - 1, lb_down)) {
                    break;
                }
                --down;
            } else {
                if (!visit(up, lb_up)) {
                    break;
                }
                ++up;
            }
        }
    }
    const std::uint64_t pruned_buckets = down + (nb - up);
    const std::uint64_t pruned_points =
        bucket_begin_[down] + (static_cast<std::uint64_t>(n_) - bucket_begin_[up]);
    return {pruned_buckets, pruned_points};
}

sparse_neighborhood::sparse_neighborhood(std::span<const byte_vector> values,
                                         const sparse_build_options& opts,
                                         const deadline& dl)
    : values_(values), n_(values.size()) {
    expects(opts.knn_cap >= 1, "sparse_neighborhood: knn_cap must be at least 1");
    expects(n_ <= 0xffffffffull, "sparse_neighborhood: point ids are 32-bit");
    obs::span sp("dissim.sparse.build");
    build_buckets();
    build_lists(opts, dl);
    seed_caches();
    charge_storage();
    sp.count("n", n_);
    sp.count("cap", capped_.cap);
    sp.count("buckets", bucket_len_.size());
    sp.count("pairs_scored", pairs_scored());
    obs::counter_add("dissim.sparse.builds_total", 1.0);
}

sparse_neighborhood::sparse_neighborhood(std::span<const byte_vector> values,
                                         capped_neighbors lists)
    : values_(values), n_(values.size()) {
    expects(n_ <= 0xffffffffull, "sparse_neighborhood: point ids are 32-bit");
    expects(lists.lists.size() == n_,
            "sparse_neighborhood: adopted lists must cover every value");
    expects(n_ < 2 || lists.cap >= 1,
            "sparse_neighborhood: adopted cap must be at least 1");
    build_buckets();
    capped_ = std::move(lists);
    const std::size_t want = std::min<std::size_t>(capped_.cap, n_ > 0 ? n_ - 1 : 0);
    for (const std::vector<neighbor>& list : capped_.lists) {
        expects(list.size() == want,
                "sparse_neighborhood: adopted list has the wrong length");
    }
    seed_caches();
    charge_storage();
}

void sparse_neighborhood::build_buckets() {
    by_length_.resize(n_);
    std::iota(by_length_.begin(), by_length_.end(), 0u);
    // Stable sort keeps ids ascending within one length — the scan order
    // every query relies on for determinism.
    std::stable_sort(by_length_.begin(), by_length_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return values_[a].size() < values_[b].size();
                     });
    bucket_of_.assign(n_, 0);
    bucket_len_.clear();
    bucket_begin_.clear();
    for (std::size_t pos = 0; pos < n_; ++pos) {
        const std::size_t len = values_[by_length_[pos]].size();
        if (bucket_len_.empty() || bucket_len_.back() != len) {
            bucket_len_.push_back(len);
            bucket_begin_.push_back(static_cast<std::uint32_t>(pos));
        }
        bucket_of_[by_length_[pos]] =
            static_cast<std::uint32_t>(bucket_len_.size() - 1);
    }
    bucket_begin_.push_back(static_cast<std::uint32_t>(n_));
}

void sparse_neighborhood::build_lists(const sparse_build_options& opts,
                                      const deadline& dl) {
    capped_.cap = static_cast<std::uint32_t>(
        std::min<std::size_t>(opts.knn_cap, 0xffffffffull));
    capped_.lists.assign(n_, {});
    if (n_ < 2) {
        return;
    }
    const std::size_t want = std::min<std::size_t>(capped_.cap, n_ - 1);
    const std::size_t lanes = util::resolve_threads(opts.threads);
    const std::size_t grain = std::max<std::size_t>(1, n_ / (8 * lanes));
    obs::progress_stage("dissim.sparse", n_);
    // Per-point scans are independent (each lane writes only its own
    // points' lists), and the per-point candidate sequence is fixed by the
    // bucket walk — so the lists are bitwise identical at any thread count.
    util::parallel_for(n_, grain, lanes, [&](std::size_t begin, std::size_t end) {
        kernel::stats st;
        kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
        std::uint64_t scored = 0;
        std::uint64_t skipped = 0;
        std::uint64_t buckets_pruned = 0;
        std::vector<neighbor> heap;
        heap.reserve(want);
        for (std::size_t i = begin; i < end; ++i) {
            if ((i - begin) % 32 == 0) {
                dl.check("sparse neighborhood");
            }
            const std::uint32_t self = static_cast<std::uint32_t>(i);
            heap.clear();
            kernel::batcher batch(byte_view{values_[i]}, stp);
            // Exact capped selection: the heap top is the running k-th
            // order statistic; replacement is strict (f < top), so every
            // value below the final k-th is admitted and the kept values
            // equal the dense row's k smallest, bit for bit. A refused
            // bucket's bound >= top means no candidate in it (or beyond)
            // can displace anything.
            const auto consider = [&](std::size_t j, float f) {
                const std::uint32_t id = static_cast<std::uint32_t>(j);
                if (heap.size() < want) {
                    heap.push_back({id, f});
                    std::push_heap(heap.begin(), heap.end(), heap_less);
                } else if (f < heap.front().d) {
                    std::pop_heap(heap.begin(), heap.end(), heap_less);
                    heap.back() = {id, f};
                    std::push_heap(heap.begin(), heap.end(), heap_less);
                }
            };
            const auto [pb, pp] =
                walk_buckets(bucket_of_[i], values_[i].size(),
                             [&](std::size_t b, float lbf) {
                                 if (heap.size() == want && lbf >= heap.front().d) {
                                     return false;
                                 }
                                 for (std::uint32_t pos = bucket_begin_[b];
                                      pos < bucket_begin_[b + 1]; ++pos) {
                                     const std::uint32_t j = by_length_[pos];
                                     if (j == self) {
                                         continue;
                                     }
                                     batch.add(j, byte_view{values_[j]}, consider);
                                     ++scored;
                                 }
                                 // The next bucket's prune test reads the
                                 // heap top, so this bucket lands first.
                                 batch.flush(consider);
                                 return true;
                             });
            buckets_pruned += pb;
            skipped += pp;
            std::sort(heap.begin(), heap.end(), neighbor_less);
            capped_.lists[i].assign(heap.begin(), heap.end());
            obs::progress_add(1);
        }
        pairs_scored_.fetch_add(scored, std::memory_order_relaxed);
        if (stp != nullptr) {
            kernel::publish(st);
            obs::counter_add("dissim.sparse.pairs_scored_total",
                             static_cast<double>(scored));
            obs::counter_add("dissim.sparse.pairs_skipped_total",
                             static_cast<double>(skipped));
            obs::counter_add("dissim.sparse.buckets_pruned_total",
                             static_cast<double>(buckets_pruned));
        }
    });
}

void sparse_neighborhood::seed_caches() {
    cache_.assign(n_, {});
    for (std::size_t i = 0; i < n_; ++i) {
        cache_[i].complete_through = list_complete_through(i);
    }
}

double sparse_neighborhood::list_complete_through(std::size_t i) const {
    const std::vector<neighbor>& list = capped_.lists[i];
    if (n_ < 2 || list.size() == n_ - 1) {
        // The list IS the full neighbor set — complete at any epsilon.
        return std::numeric_limits<double>::infinity();
    }
    if (list.empty()) {
        return -1.0;
    }
    // A truncated list is complete strictly below its largest stored
    // distance: neighbors tied with the cut-off value may have been dropped
    // by the cap, so the largest value itself is already suspect. nextafter
    // toward −1 keeps zero-distance cut-offs honest (the threshold goes
    // negative, forcing a scan even at epsilon = 0).
    return std::nextafter(static_cast<double>(list.back().d), -1.0);
}

void sparse_neighborhood::charge_storage() {
    std::uint64_t bytes = by_length_.size() * sizeof(std::uint32_t) * 2 +
                          bucket_len_.size() * sizeof(std::size_t) +
                          bucket_begin_.size() * sizeof(std::uint32_t);
    for (const std::vector<neighbor>& list : capped_.lists) {
        bytes += list.size() * sizeof(neighbor) + sizeof(std::vector<neighbor>);
    }
    bytes += cache_.size() * sizeof(range_cache);
    lists_charge_ = mem::charge(bytes, "dissim.sparse");
}

void sparse_neighborhood::dissimilarities(std::size_t i, std::span<const std::size_t> js,
                                          double ceiling, std::span<double> out) const {
    expects(i < n_, "dissimilarities: point index out of range");
    expects(js.size() == out.size(), "dissimilarities: one output per partner");
    kernel::stats st;
    kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
    std::uint64_t scored = 0;
    std::uint64_t skipped = 0;
    kernel::batcher batch(byte_view{values_[i]}, stp);
    // The batcher hands back the key it was given: here the output slot.
    const auto store = [&](std::size_t k, float f) { out[k] = static_cast<double>(f); };
    for (std::size_t k = 0; k < js.size(); ++k) {
        const std::size_t j = js[k];
        expects(j < n_, "dissimilarities: partner index out of range");
        if (j == i) {
            out[k] = 0.0;
            continue;
        }
        // No stored value lies below its pair's length bound (DESIGN.md
        // §13), so a bound at or above the ceiling settles the partner
        // without a kernel call.
        if (static_cast<double>(length_lower_bound(values_[i].size(), values_[j].size())) >=
            ceiling) {
            out[k] = std::numeric_limits<double>::infinity();
            ++skipped;
            continue;
        }
        batch.add(k, byte_view{values_[j]}, store);
        ++scored;
    }
    batch.flush(store);
    pairs_scored_.fetch_add(scored, std::memory_order_relaxed);
    if (stp != nullptr && scored > 0) {
        kernel::publish(st);
        obs::counter_add("dissim.sparse.ondemand_pairs_total", static_cast<double>(scored));
    }
    if (stp != nullptr && skipped > 0) {
        obs::counter_add("dissim.sparse.pairs_skipped_total", static_cast<double>(skipped));
    }
}

template <typename Skip>
std::uint64_t sparse_neighborhood::scan_within(std::size_t i, double epsilon, Skip&& skip,
                                               std::vector<neighbor>& found,
                                               kernel::stats* stp) const {
    std::uint64_t scored = 0;
    kernel::batcher batch(byte_view{values_[i]}, stp);
    const auto consider = [&](std::size_t j, float f) {
        if (static_cast<double>(f) <= epsilon) {
            found.push_back({static_cast<std::uint32_t>(j), f});
        }
    };
    walk_buckets(bucket_of_[i], values_[i].size(), [&](std::size_t b, float lbf) {
        // Strict >: at lbf == epsilon a pair could still land exactly on
        // the (deflated) bound and pass the <= epsilon test.
        if (static_cast<double>(lbf) > epsilon) {
            return false;
        }
        for (std::uint32_t pos = bucket_begin_[b]; pos < bucket_begin_[b + 1]; ++pos) {
            const std::uint32_t j = by_length_[pos];
            if (j == i || skip(j)) {
                continue;
            }
            batch.add(j, byte_view{values_[j]}, consider);
            ++scored;
        }
        batch.flush(consider);
        return true;
    });
    return scored;
}

std::vector<std::uint32_t> sparse_neighborhood::neighbors_within(std::size_t i,
                                                                 double epsilon) const {
    expects(i < n_, "neighbors_within: point index out of range");
    const std::uint32_t self = static_cast<std::uint32_t>(i);
    const range_cache& rc = cache_[i];
    std::vector<std::uint32_t> out;
    if (epsilon <= rc.complete_through) {
        obs::counter_add("dissim.sparse.cache_hits_total", 1.0);
    }
    if (rc.prepared && epsilon <= rc.complete_through) {
        // Merge the two id-ordered arrays around i itself. Every mirrored
        // id lies below i: only lower-id partners mirror a pair into it.
        out.reserve(rc.own.size() + rc.mirrored.size() + 1);
        const auto keep = [&](const neighbor& nb) {
            if (static_cast<double>(nb.d) <= epsilon) {
                out.push_back(nb.id);
            }
        };
        std::size_t a = 0;
        for (const neighbor& nb : rc.mirrored) {
            for (; a < rc.own.size() && rc.own[a].id < nb.id; ++a) {
                keep(rc.own[a]);
            }
            keep(nb);
        }
        for (; a < rc.own.size() && rc.own[a].id < self; ++a) {
            keep(rc.own[a]);
        }
        out.push_back(self);
        for (; a < rc.own.size(); ++a) {
            keep(rc.own[a]);
        }
        return out;
    }
    out.push_back(self);
    if (epsilon <= rc.complete_through) {
        // The phase-1 list ascends by (d, id): its prefix is the answer.
        for (const neighbor& nb : capped_.lists[i]) {
            if (static_cast<double>(nb.d) > epsilon) {
                break;
            }
            out.push_back(nb.id);
        }
    } else {
        // No prepare covers this epsilon: scan locally and keep nothing.
        kernel::stats st;
        kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
        std::vector<neighbor> found;
        const std::uint64_t scored =
            scan_within(i, epsilon, [](std::uint32_t) { return false; }, found, stp);
        pairs_scored_.fetch_add(scored, std::memory_order_relaxed);
        if (stp != nullptr) {
            kernel::publish(st);
            obs::counter_add("dissim.sparse.pairs_scored_total", static_cast<double>(scored));
        }
        for (const neighbor& nb : found) {
            out.push_back(nb.id);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t sparse_neighborhood::drop_caches(std::span<const std::uint32_t> points) const {
    std::uint64_t freed = 0;
    for (const std::uint32_t i : points) {
        range_cache& rc = cache_[i];
        freed += (rc.own.capacity() + rc.mirrored.capacity()) * sizeof(neighbor);
        rc = range_cache{list_complete_through(i), false, {}, {}};
    }
    return freed;
}

void sparse_neighborhood::prepare_within(double epsilon, std::size_t threads) const {
    std::vector<std::uint32_t> todo;
    std::vector<std::uint8_t> in_todo(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
        if (epsilon > cache_[i].complete_through) {
            todo.push_back(static_cast<std::uint32_t>(i));
            in_todo[i] = 1;
        }
    }
    if (todo.empty()) {
        return;
    }
    obs::span sp("dissim.sparse.prepare");
    sp.count("points", todo.size());
    // The old arrays go (and stop counting) before any new one exists. The
    // charge is resized on this thread: the governor is per thread.
    cache_charge_.resize(cache_charge_.bytes() - drop_caches(todo), kCacheCharge);
    const std::uint64_t base = cache_charge_.bytes();
    const std::uint64_t scored_before = pairs_scored();
    try {
        // Each unordered pair is scored once: a point skips a partner that
        // is scanned too and has the lower id, because the length bound is
        // symmetric — that partner's walk visits this point's bucket — and
        // the kernel is symmetric bit for bit.
        const std::size_t lanes = util::resolve_threads(threads);
        const std::size_t grain = std::max<std::size_t>(1, todo.size() / (8 * lanes));
        util::parallel_for(todo.size(), grain, lanes, [&](std::size_t begin, std::size_t end) {
            kernel::stats st;
            kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
            std::uint64_t scored = 0;
            std::vector<neighbor> found;
            for (std::size_t t = begin; t < end; ++t) {
                const std::uint32_t i = todo[t];
                found.clear();
                scored += scan_within(
                    i, epsilon, [&](std::uint32_t j) { return j < i && in_todo[j] != 0; },
                    found, stp);
                std::sort(found.begin(), found.end(), id_less);
                cache_[i].own.assign(found.begin(), found.end());
            }
            pairs_scored_.fetch_add(scored, std::memory_order_relaxed);
            if (stp != nullptr) {
                kernel::publish(st);
                obs::counter_add("dissim.sparse.range_rescans_total",
                                 static_cast<double>(end - begin));
                obs::counter_add("dissim.sparse.pairs_scored_total",
                                 static_cast<double>(scored));
            }
        });
        std::uint64_t bytes = 0;
        for (const std::uint32_t i : todo) {
            bytes += cache_[i].own.capacity() * sizeof(neighbor);
        }
        cache_charge_.resize(base + bytes, kCacheCharge);
        // Mirror each pair whose partner was scanned too, sized exactly
        // before allocating; ascending owners fill every array in id order.
        std::vector<std::uint32_t> mirrors(n_, 0);
        for (const std::uint32_t i : todo) {
            for (const neighbor& nb : cache_[i].own) {
                if (in_todo[nb.id] != 0) {
                    ++mirrors[nb.id];
                    bytes += sizeof(neighbor);
                }
            }
        }
        cache_charge_.resize(base + bytes, kCacheCharge);
        for (const std::uint32_t i : todo) {
            cache_[i].mirrored.reserve(mirrors[i]);
        }
        for (const std::uint32_t i : todo) {
            for (const neighbor& nb : cache_[i].own) {
                if (in_todo[nb.id] != 0) {
                    cache_[nb.id].mirrored.push_back({i, nb.d});
                }
            }
        }
    } catch (...) {
        // Back to the phase-1 lists: nothing of a failed prepare stays.
        drop_caches(todo);
        cache_charge_.resize(base, kCacheCharge);
        throw;
    }
    for (const std::uint32_t i : todo) {
        cache_[i].prepared = true;
        cache_[i].complete_through = epsilon;
    }
    sp.count("pairs_scored", pairs_scored() - scored_before);
}

std::vector<double> sparse_neighborhood::kth_nn(std::size_t k,
                                                std::size_t /*threads*/) const {
    expects(k >= 1, "kth_nn: k must be at least 1");
    if (n_ < 2) {
        return {};
    }
    const std::size_t kk = std::min(k, n_ - 1);
    const std::size_t held = std::min<std::size_t>(capped_.cap, n_ - 1);
    if (kk > held) {
        throw knn_cap_error(message("kth_nn: k ", k, " exceeds the sparse neighbor cap ",
                                    capped_.cap, " (", held, " neighbors held per point)"));
    }
    std::vector<double> out(n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
        out[i] = static_cast<double>(capped_.lists[i][kk - 1].d);
    }
    return out;
}

std::vector<std::vector<double>> sparse_neighborhood::kth_nn_many(
    std::size_t k_max, std::size_t /*threads*/) const {
    expects(k_max >= 1, "kth_nn_many: k_max must be at least 1");
    if (n_ < 2) {
        return std::vector<std::vector<double>>(k_max);
    }
    const std::size_t kk_max = std::min(k_max, n_ - 1);
    const std::size_t held = std::min<std::size_t>(capped_.cap, n_ - 1);
    if (kk_max > held) {
        throw knn_cap_error(message("kth_nn_many: k_max ", k_max,
                                    " exceeds the sparse neighbor cap ", capped_.cap,
                                    " (", held, " neighbors held per point)"));
    }
    obs::span sp("dissim.kth_nn_many");
    sp.count("n", n_);
    sp.count("k_max", k_max);
    const mem::charge curves_charge(
        static_cast<std::uint64_t>(k_max) * n_ * sizeof(double), "dissim.knn_curves");
    // The lists already hold each point's sorted k smallest distances —
    // the exact f32 order statistics partial_sort finds on a matrix row —
    // so every curve is a column read, no kernel work.
    std::vector<std::vector<double>> out(k_max, std::vector<double>(n_, 0.0));
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t k = 1; k <= k_max; ++k) {
            out[k - 1][i] = static_cast<double>(capped_.lists[i][std::min(k, n_ - 1) - 1].d);
        }
    }
    return out;
}

}  // namespace ftc::dissim
