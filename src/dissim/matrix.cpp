#include "dissim/matrix.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "dissim/kernel.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

namespace {

/// Storage behind one unique_segments instance, for its mem::charge: the
/// value byte payloads plus per-value container headers, plus either the
/// occurrence structs (full form) or the multiplicity words (weighted).
std::uint64_t unique_footprint_bytes(const unique_segments& u) {
    std::uint64_t bytes = 0;
    for (const byte_vector& v : u.values) {
        bytes += v.size() + sizeof(byte_vector);
    }
    if (u.occurrences_elided) {
        bytes += u.multiplicities.size() * sizeof(std::uint32_t);
    } else {
        for (const auto& occs : u.occurrences) {
            bytes += occs.size() * sizeof(segmentation::segment) +
                     sizeof(std::vector<segmentation::segment>);
        }
    }
    return bytes;
}

}  // namespace

unique_segments condense(const std::vector<byte_vector>& messages,
                         const segmentation::message_segments& segs,
                         std::size_t min_length) {
    unique_segments out;
    std::map<byte_vector, std::size_t> index;
    for (const std::vector<segmentation::segment>& per_message : segs) {
        for (const segmentation::segment& seg : per_message) {
            if (seg.length < min_length) {
                ++out.short_segments;
                continue;
            }
            const byte_view bytes = segmentation::segment_bytes(messages, seg);
            byte_vector value(bytes.begin(), bytes.end());
            const auto [it, inserted] = index.try_emplace(std::move(value), out.values.size());
            if (inserted) {
                out.values.emplace_back(it->first);
                out.occurrences.emplace_back();
            }
            out.occurrences[it->second].push_back(seg);
        }
    }
    out.footprint = mem::charge(unique_footprint_bytes(out), "dissim.unique");
    return out;
}

unique_segments condense_weighted(const std::vector<byte_vector>& messages,
                                  const segmentation::message_segments& segs,
                                  std::size_t min_length) {
    unique_segments out;
    out.occurrences_elided = true;

    // Open-addressed digest index over out.values: slots hold value indices,
    // probed linearly from the FNV-1a64 digest of the bytes, byte-compared
    // on hit (digests dedup candidates, bytes decide). Indices are assigned
    // at first sight of a value — the same rule condense() applies — so
    // out.values is identical to the full form's, entry for entry.
    constexpr std::uint32_t kEmpty = 0xffffffffu;
    std::vector<std::uint32_t> slots(64, kEmpty);

    const auto digest_of = [](byte_view bytes) {
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
        for (const std::uint8_t b : bytes) {
            h = (h ^ b) * 1099511628211ull;  // FNV-1a 64 prime
        }
        return h;
    };

    const auto rehash = [&] {
        std::vector<std::uint32_t> grown(slots.size() * 2, kEmpty);
        const std::size_t mask = grown.size() - 1;
        for (const std::uint32_t idx : slots) {
            if (idx == kEmpty) {
                continue;
            }
            std::size_t at = digest_of(byte_view{out.values[idx]}) & mask;
            while (grown[at] != kEmpty) {
                at = (at + 1) & mask;
            }
            grown[at] = idx;
        }
        slots.swap(grown);
    };

    for (const std::vector<segmentation::segment>& per_message : segs) {
        for (const segmentation::segment& seg : per_message) {
            if (seg.length < min_length) {
                ++out.short_segments;
                continue;
            }
            const byte_view bytes = segmentation::segment_bytes(messages, seg);
            if (2 * (out.values.size() + 1) > slots.size()) {
                rehash();
            }
            const std::size_t mask = slots.size() - 1;
            std::size_t at = digest_of(bytes) & mask;
            while (true) {
                const std::uint32_t idx = slots[at];
                if (idx == kEmpty) {
                    slots[at] = static_cast<std::uint32_t>(out.values.size());
                    out.values.emplace_back(bytes.begin(), bytes.end());
                    out.multiplicities.push_back(1);
                    break;
                }
                if (out.values[idx].size() == bytes.size() &&
                    std::equal(bytes.begin(), bytes.end(), out.values[idx].begin())) {
                    ++out.multiplicities[idx];
                    break;
                }
                at = (at + 1) & mask;
            }
        }
    }
    obs::counter_add("mem.dedup_condensations_total", 1.0);
    out.footprint = mem::charge(unique_footprint_bytes(out), "dissim.unique.weighted");
    return out;
}

namespace {

build_options dense_options(std::size_t threads) {
    build_options opts;
    opts.threads = threads;
    return opts;
}

}  // namespace

dissimilarity_matrix::dissimilarity_matrix(std::span<const byte_vector> values,
                                           const deadline& dl, std::size_t threads)
    : dissimilarity_matrix(values, dense_options(threads), dl) {}

dissimilarity_matrix::dissimilarity_matrix(std::span<const byte_vector> values,
                                           const build_options& opts, const deadline& dl)
    : n_(values.size()), layout_(opts.storage) {
    obs::span sp("dissim.matrix");
    sp.count("n", n_);
    sp.count("pairs", n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    sp.count("triangular", layout_ == layout::triangular ? 1 : 0);
    // The footprint-dominant allocation of the whole pipeline: tracked, so
    // an active memory governor turns "this matrix cannot fit" into
    // ftc::memory_budget_exceeded_error here instead of an OOM kill later.
    if (layout_ == layout::dense) {
        data_.assign(n_ * n_, 0.0f);
        build_dense(values, dl, opts.threads);
    } else {
        data_.assign(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2, 0.0f);
        build_triangular(values, opts, dl);
    }
}

void dissimilarity_matrix::build_dense(std::span<const byte_vector> values,
                                       const deadline& dl, std::size_t threads) {
    // Length-bucketed visit order: rows walk their partners grouped by
    // segment length (stable within a group), so equal-length pairs hit the
    // branch-predictable fast path back to back and sliding pairs of one
    // length class stay contiguous. The set of (i, j) pairs and the value
    // written per cell are unchanged — only the visit order moves — so the
    // matrix stays bitwise identical to an unbucketed build.
    std::vector<std::uint32_t> order(n_);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return values[a].size() < values[b].size();
    });
    // Row-blocked upper-triangle fan-out over ORDER POSITIONS: block rows
    // are positions p in the bucketed order, and row p pairs order[p] with
    // every order[q], q > p — each unordered pair lands in exactly one
    // block and each cell has exactly one writer, so the matrix is bitwise
    // identical at any thread count. Iterating in order-space (instead of
    // index-space with a j <= i skip scan) halves the inner-loop visits
    // and keeps every row's equal-length partners in one contiguous run.
    // Blocks are handed out dynamically because row p carries n-1-p pairs
    // — late rows are much cheaper than early ones.
    const std::size_t lanes = util::resolve_threads(threads);
    const std::size_t grain = std::max<std::size_t>(1, n_ / (8 * lanes));
    obs::progress_stage("dissim.matrix", n_);
    float* const cells = data_.data();
    const auto store = [cells](std::size_t cell, float f) { cells[cell] = f; };
    util::parallel_for(n_, grain, lanes, [&](std::size_t begin, std::size_t end) {
        kernel::stats st;
        kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
        for (std::size_t p = begin; p < end; ++p) {
            if ((p - begin) % 32 == 0) {
                dl.check("dissimilarity matrix");
            }
            const std::uint32_t i = order[p];
            kernel::batcher batch(byte_view{values[i]}, stp);
            for (std::size_t q = p + 1; q < n_; ++q) {
                const std::uint32_t j = order[q];
                batch.add(i < j ? i * n_ + j : static_cast<std::size_t>(j) * n_ + i,
                          byte_view{values[j]}, store);
            }
            batch.flush(store);
            obs::progress_add(1);
        }
        if (stp != nullptr) {
            kernel::publish(st);
        }
    });
    // The fan-out writes only the upper triangle (a strided mirror store
    // per pair would miss the cache across the whole matrix); mirror once
    // here in 64×64 blocks so reads and writes both stay resident. Block
    // row ib reads upper cells of rows [ib, ie) and writes lower cells of
    // columns [ib, ie) only, so the block rows fan out over the lanes with
    // disjoint writes. Pure copies of already-final cells — deterministic
    // at any thread count.
    constexpr std::size_t kMirrorBlock = 64;
    const std::size_t blocks = (n_ + kMirrorBlock - 1) / kMirrorBlock;
    util::parallel_for(blocks, 1, lanes, [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
            const std::size_t ib = b * kMirrorBlock;
            const std::size_t ie = std::min(ib + kMirrorBlock, n_);
            for (std::size_t jb = ib; jb < n_; jb += kMirrorBlock) {
                const std::size_t je = std::min(jb + kMirrorBlock, n_);
                for (std::size_t i = ib; i < ie; ++i) {
                    for (std::size_t j = std::max(jb, i + 1); j < je; ++j) {
                        data_[j * n_ + i] = data_[i * n_ + j];
                    }
                }
            }
        }
    });
}

void dissimilarity_matrix::build_triangular(std::span<const byte_vector> values,
                                            const build_options& opts, const deadline& dl) {
    // Plain row order, tile by tile: tile cells are one contiguous run of
    // the upper triangle, so a completed tile can be spilled (opts.on_tile)
    // as final bytes the moment its last row lands. Rows inside a tile fan
    // out across lanes; each row's cells have exactly one writer. Per-pair
    // values are the single-call kernel results, so this build is bitwise
    // identical to the dense build cell for cell — only layout and the
    // batch composition differ, and neither affects any value.
    const std::size_t lanes = util::resolve_threads(opts.threads);
    const std::size_t tile_rows = opts.tile_rows == 0 ? (n_ > 0 ? n_ : 1) : opts.tile_rows;
    obs::progress_stage("dissim.matrix", n_);
    float* const cells = data_.data();
    const auto store = [cells](std::size_t cell, float f) { cells[cell] = f; };
    for (std::size_t row_begin = 0; row_begin < n_; row_begin += tile_rows) {
        const std::size_t row_end = std::min(row_begin + tile_rows, n_);
        const std::size_t grain =
            std::max<std::size_t>(1, (row_end - row_begin) / (8 * lanes));
        util::parallel_for(row_end - row_begin, grain, lanes,
                           [&](std::size_t begin, std::size_t end) {
            kernel::stats st;
            kernel::stats* stp = obs::current() != nullptr ? &st : nullptr;
            for (std::size_t r = begin; r < end; ++r) {
                const std::size_t i = row_begin + r;
                if (r % 32 == 0) {
                    dl.check("dissimilarity matrix");
                }
                kernel::batcher batch(byte_view{values[i]}, stp);
                const std::size_t base = tri_offset(i);
                for (std::size_t j = i + 1; j < n_; ++j) {
                    batch.add(base + (j - i - 1), byte_view{values[j]}, store);
                }
                batch.flush(store);
                obs::progress_add(1);
            }
            if (stp != nullptr) {
                kernel::publish(st);
            }
        });
        dl.check("dissimilarity matrix tile");
        if (opts.on_tile) {
            const std::size_t begin = tri_offset(row_begin);
            const std::size_t end = tri_offset(row_end);
            opts.on_tile(row_begin, row_end, n_,
                         std::span<const float>(data_.data() + begin, end - begin));
        }
    }
}

dissimilarity_matrix dissimilarity_matrix::from_dense(std::span<const double> dense,
                                                      std::size_t n) {
    expects(dense.size() == n * n, "from_dense: matrix must be n*n");
    dissimilarity_matrix m;
    m.n_ = n;
    m.data_.resize(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        expects(dense[i * n + i] == 0.0, "from_dense: diagonal must be zero");
        for (std::size_t j = 0; j < n; ++j) {
            expects(dense[i * n + j] == dense[j * n + i], "from_dense: matrix must be symmetric");
            m.data_[i * n + j] = static_cast<float>(dense[i * n + j]);
        }
    }
    return m;
}

dissimilarity_matrix dissimilarity_matrix::from_upper(std::span<const float> upper,
                                                      std::size_t n, layout storage) {
    expects(upper.size() == n * (n - (n > 0 ? 1 : 0)) / 2,
            "from_upper: need exactly n*(n-1)/2 entries");
    dissimilarity_matrix m;
    m.n_ = n;
    m.layout_ = storage;
    for (const float d : upper) {
        // The sliding-Canberra range guarantee; a checkpoint restoring
        // values outside it is damaged in a way the digest cannot see
        // (e.g. forged), and NaNs would poison DBSCAN comparisons.
        expects(d >= 0.0f && d <= 1.0f, "from_upper: entry outside [0, 1]");
    }
    if (storage == layout::triangular) {
        m.data_.assign(upper.begin(), upper.end());
        return m;
    }
    m.data_.assign(n * n, 0.0f);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j, ++r) {
            m.data_[i * n + j] = upper[r];
            m.data_[j * n + i] = upper[r];
        }
    }
    return m;
}

std::vector<float> dissimilarity_matrix::upper_triangle_f32() const {
    if (layout_ == layout::triangular) {
        return std::vector<float>(data_.begin(), data_.end());
    }
    std::vector<float> out;
    out.reserve(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
            out.push_back(data_[i * n_ + j]);
        }
    }
    return out;
}

std::span<const float> dissimilarity_matrix::data() const {
    expects(layout_ == layout::dense,
            "data: raw row-major storage exists only in the dense layout");
    return {data_.data(), data_.size()};
}

const float* dissimilarity_matrix::row(std::size_t i, float* scratch) const {
    if (layout_ == layout::dense) {
        return data_.data() + i * n_;
    }
    gather_row(i, scratch);
    std::copy_backward(scratch + i, scratch + n_ - 1, scratch + n_);
    scratch[i] = 0.0f;
    return scratch;
}

void dissimilarity_matrix::gather_row(std::size_t i, float* out) const {
    std::size_t w = 0;
    if (layout_ == layout::dense) {
        for (std::size_t j = 0; j < n_; ++j) {
            if (j != i) {
                out[w++] = data_[i * n_ + j];
            }
        }
        return;
    }
    // Column i of rows above (one strided pick per row), then the
    // contiguous tail of row i.
    for (std::size_t j = 0; j < i; ++j) {
        out[w++] = data_[tri_cell(j, i)];
    }
    const std::size_t base = tri_offset(i);
    for (std::size_t j = i + 1; j < n_; ++j) {
        out[w++] = data_[base + (j - i - 1)];
    }
}

std::vector<double> dissimilarity_matrix::kth_nn(std::size_t k, std::size_t threads) const {
    expects(k >= 1, "kth_nn: k must be at least 1");
    if (n_ < 2) {
        return {};
    }
    obs::span sp("dissim.kth_nn");
    sp.count("n", n_);
    sp.count("k", k);
    const std::size_t kk = std::min(k, n_ - 1);
    // Each row selects its k-th neighbour independently into out[i]; the
    // per-lane scratch row keeps nth_element off shared state.
    std::vector<double> out(n_, 0.0);
    util::parallel_for(n_, 64, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<float> row(n_ - 1);
        for (std::size_t i = begin; i < end; ++i) {
            gather_row(i, row.data());
            std::nth_element(row.begin(), row.begin() + static_cast<long>(kk - 1), row.end());
            out[i] = static_cast<double>(row[kk - 1]);
        }
    });
    return out;
}

std::vector<std::vector<double>> dissimilarity_matrix::kth_nn_many(std::size_t k_max,
                                                                   std::size_t threads) const {
    expects(k_max >= 1, "kth_nn_many: k_max must be at least 1");
    if (n_ < 2) {
        return std::vector<std::vector<double>>(k_max);
    }
    obs::span sp("dissim.kth_nn_many");
    sp.count("n", n_);
    sp.count("k_max", k_max);
    const std::size_t kk_max = std::min(k_max, n_ - 1);
    // The curve batch is the second-largest buffer of the dissimilarity
    // stage (k_max curves of n doubles); charge it so the governor sees the
    // spike while it exists.
    const mem::charge curves_charge(
        static_cast<std::uint64_t>(k_max) * n_ * sizeof(double), "dissim.knn_curves");
    std::vector<std::vector<double>> out(k_max, std::vector<double>(n_, 0.0));
    // One row scan serves every k: partially sorting the kk_max smallest
    // neighbours yields each k-th order statistic — the same float values
    // nth_element finds in kth_nn, so curves are bitwise identical to
    // k_max individual extractions at a fraction of the scans. Each lane
    // writes only column i of each curve, so any thread count produces the
    // same result.
    obs::progress_stage("dissim.knn", n_);
    util::parallel_for(n_, 64, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<float> row(n_ - 1);
        for (std::size_t i = begin; i < end; ++i) {
            gather_row(i, row.data());
            std::partial_sort(row.begin(), row.begin() + static_cast<long>(kk_max), row.end());
            for (std::size_t k = 1; k <= k_max; ++k) {
                out[k - 1][i] = static_cast<double>(row[std::min(k, n_ - 1) - 1]);
            }
            obs::progress_add(1);
        }
    });
    return out;
}

std::vector<double> dissimilarity_matrix::upper_triangle() const {
    std::vector<double> out;
    out.reserve(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    if (layout_ == layout::triangular) {
        for (const float d : data_) {
            out.push_back(static_cast<double>(d));
        }
        return out;
    }
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
            out.push_back(static_cast<double>(data_[i * n_ + j]));
        }
    }
    return out;
}

}  // namespace ftc::dissim
