#include "dissim/neighborhood.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

std::size_t neighborhood_source::expand_within(std::size_t i, double epsilon,
                                              std::size_t min_count,
                                              std::span<const std::uint64_t> skip,
                                              std::vector<std::uint32_t>& fresh) const {
    expects(skip.size() == (size() + 63) / 64, "expand_within: one skip bit per point");
    const std::vector<std::uint32_t> within = neighbors_within(i, epsilon);
    if (within.size() >= min_count) {
        for (const std::uint32_t j : within) {
            if ((skip[j / 64] >> (j % 64) & 1u) == 0) {
                fresh.push_back(j);
            }
        }
    }
    return within.size();
}

void row_counts::add(const row_counts& other) {
    kernel.invocations += other.kernel.invocations;
    kernel.equal_fast_path += other.kernel.equal_fast_path;
    kernel.windows_total += other.kernel.windows_total;
    kernel.windows_pruned += other.kernel.windows_pruned;
    scored += other.scored;
    skipped += other.skipped;
}

void row_counts::publish() const {
    if (scored > 0) {
        kernel::publish(kernel);
        obs::counter_add("dissim.sparse.ondemand_pairs_total", static_cast<double>(scored));
    }
    if (skipped > 0) {
        obs::counter_add("dissim.sparse.pairs_skipped_total", static_cast<double>(skipped));
    }
}

void neighborhood_source::dissimilarities(std::size_t i, std::span<const std::size_t> js,
                                          double ceiling, std::span<double> out) const {
    row_counts counts;
    dissimilarities(i, js, ceiling, out, counts);
    counts.publish();
}

void matrix_neighborhood::dissimilarities(std::size_t i, std::span<const std::size_t> js,
                                          double /*ceiling*/, std::span<double> out,
                                          row_counts& /*counts*/) const {
    expects(i < matrix_.size(), "dissimilarities: point index out of range");
    expects(js.size() == out.size(), "dissimilarities: one output per partner");
    for (std::size_t k = 0; k < js.size(); ++k) {
        out[k] = matrix_.at(i, js[k]);
    }
}

std::vector<std::uint32_t> matrix_neighborhood::neighbors_within(std::size_t i,
                                                                 double epsilon) const {
    expects(i < matrix_.size(), "neighbors_within: point index out of range");
    // The exact row scan cluster::dbscan historically ran: ascending j,
    // diagonal included (at(i, i) == 0 <= epsilon for any non-negative
    // epsilon), double comparison against the widened f32 cell.
    std::vector<std::uint32_t> out;
    for (std::size_t j = 0; j < matrix_.size(); ++j) {
        if (matrix_.at(i, j) <= epsilon) {
            out.push_back(static_cast<std::uint32_t>(j));
        }
    }
    return out;
}

std::size_t matrix_neighborhood::expand_within(std::size_t i, double epsilon,
                                              std::size_t min_count,
                                              std::span<const std::uint64_t> skip,
                                              std::vector<std::uint32_t>& fresh) const {
    if (!prepared_ || epsilon != prepared_epsilon_) {
        return neighborhood_source::expand_within(i, epsilon, min_count, skip, fresh);
    }
    expects(i < size(), "expand_within: point index out of range");
    expects(skip.size() == words_, "expand_within: one skip bit per point");
    const std::size_t count = counts_[i];
    if (count >= min_count) {
        const std::uint64_t* row = bits_.data() + i * words_;
        for (std::size_t w = 0; w < words_; ++w) {
            for (std::uint64_t left = row[w] & ~skip[w]; left != 0; left &= left - 1) {
                fresh.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(left)));
            }
        }
    }
    return count;
}

void matrix_neighborhood::prepare_within(double epsilon, std::size_t threads) const {
    const std::size_t n = size();
    if (n == 0 || (prepared_ && epsilon == prepared_epsilon_)) {
        return;
    }
    obs::span sp("dissim.matrix.prepare");
    sp.count("n", n);
    if (bits_.empty()) {
        // Optional speed, never a reason to fail: a run that fits without
        // the rows keeps the plain row scans.
        const std::uint64_t bytes = static_cast<std::uint64_t>(n) *
                                    (words_ * sizeof(std::uint64_t) + sizeof(std::uint32_t));
        if (mem::would_exceed(bytes)) {
            sp.count("skipped", 1);
            obs::counter_add("dissim.matrix.prepare_skipped_total", 1.0);
            return;
        }
        bits_.assign(n * words_, 0);
        counts_.assign(n, 0);
    }
    // Neighbor sets only shrink with epsilon, so a smaller epsilon re-tests
    // the set bits alone; a larger one must see every cell again.
    const bool retest = prepared_ && epsilon < prepared_epsilon_;
    const auto set_bits = [&] {
        std::uint64_t total = 0;
        for (const std::uint32_t c : counts_) {
            total += c;
        }
        return total;
    };
    const bool observed = obs::current() != nullptr;
    const std::uint64_t retested = retest && observed ? set_bits() : 0;
    prepared_ = false;  // until every row is marked
    // At least 64 rows a block: below that, starting a lane costs more
    // than marking the rows.
    const std::size_t lanes = util::resolve_threads(threads);
    const std::size_t grain = std::max<std::size_t>(64, n / (8 * lanes));
    util::parallel_for(n, grain, lanes, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            std::uint64_t* row = bits_.data() + i * words_;
            std::uint32_t count = 0;
            if (retest) {
                for (std::size_t w = 0; w < words_; ++w) {
                    std::uint64_t word = row[w];
                    for (std::uint64_t left = word; left != 0; left &= left - 1) {
                        const int b = std::countr_zero(left);
                        if (!(matrix_.at(i, w * 64 + static_cast<std::size_t>(b)) <= epsilon)) {
                            word &= ~(std::uint64_t{1} << b);
                        }
                    }
                    row[w] = word;
                    count += static_cast<std::uint32_t>(std::popcount(word));
                }
            } else {
                // The compare of the row scan in neighbors_within, cell for
                // cell: the widened f32 against epsilon.
                const float* cells = matrix_.row(i);
                for (std::size_t w = 0; w < words_; ++w) {
                    const std::size_t base = w * 64;
                    const std::size_t width = std::min<std::size_t>(64, n - base);
                    std::uint64_t word = 0;
                    for (std::size_t b = 0; b < width; ++b) {
                        word |= static_cast<std::uint64_t>(
                                    static_cast<double>(cells[base + b]) <= epsilon)
                                << b;
                    }
                    row[w] = word;
                    count += static_cast<std::uint32_t>(std::popcount(word));
                }
            }
            counts_[i] = count;
        }
    });
    prepared_ = true;
    prepared_epsilon_ = epsilon;
    if (observed) {
        const std::uint64_t cells = retest ? 0 : static_cast<std::uint64_t>(n) * n;
        obs::counter_add("dissim.matrix.cells_scanned_total", static_cast<double>(cells));
        obs::counter_add("dissim.matrix.bits_retested_total", static_cast<double>(retested));
        if (sp.enabled()) {
            sp.count("cells_scanned", cells);
            sp.count("bits_retested", retested);
            // Unordered pairs i < j; every diagonal bit is set at epsilon >= 0.
            sp.count("pairs_within", (set_bits() - (epsilon >= 0.0 ? n : 0)) / 2);
        }
    }
}

}  // namespace ftc::dissim
