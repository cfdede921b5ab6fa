#include "dissim/kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ftc::dissim::kernel {

namespace {

/// The shared per-byte term table. Each entry runs exactly the arithmetic
/// of the reference loop in canberra.cpp (same operand order, same select
/// of |x−y|), so a table lookup and a reference evaluation of the same
/// byte pair are the same double.
struct term_table_holder {
    alignas(64) std::array<double, 256 * 256> terms{};

    term_table_holder() {
        for (int x = 0; x < 256; ++x) {
            for (int y = 0; y < 256; ++y) {
                const double xi = x;
                const double yi = y;
                const double denom = xi + yi;
                terms[static_cast<std::size_t>(x) * 256 + static_cast<std::size_t>(y)] =
                    denom != 0.0 ? (xi > yi ? xi - yi : yi - xi) / denom : 0.0;
            }
        }
    }
};

/// Chunk granularity (bytes) of the early-exit prune checks inside the
/// sliding loops. Coarse enough to amortize the comparison, fine enough
/// that a hopeless long window dies early.
constexpr std::size_t kPruneChunk = 32;

/// Accumulate the table terms of len byte pairs onto \p sum, strictly in
/// element order (sum = ((sum + t_0) + t_1) + ...) — the reference order.
double row_terms(const std::uint8_t* x, const std::uint8_t* y, std::size_t len, double sum,
                 const double* lut) {
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const double t0 = lut[static_cast<std::size_t>(x[i]) << 8 | y[i]];
        const double t1 = lut[static_cast<std::size_t>(x[i + 1]) << 8 | y[i + 1]];
        const double t2 = lut[static_cast<std::size_t>(x[i + 2]) << 8 | y[i + 2]];
        const double t3 = lut[static_cast<std::size_t>(x[i + 3]) << 8 | y[i + 3]];
        sum += t0;
        sum += t1;
        sum += t2;
        sum += t3;
    }
    for (; i < len; ++i) {
        sum += lut[static_cast<std::size_t>(x[i]) << 8 | y[i]];
    }
    return sum;
}

/// Sum eight consecutive windows (y+0..y+7 against x) into sums[0..7],
/// each window a strictly in-order add chain; the speedup comes from the
/// eight independent chains overlapping in the pipeline, never from
/// reordering one window's sum (DESIGN.md §9). Returns true when abandoned
/// at a kPruneChunk checkpoint with every partial already above \p bound.
/// The caller guarantees y[0 .. m+6] is readable (the eighth window fits).
bool batch8_terms(const std::uint8_t* x, const std::uint8_t* y, std::size_t m,
                  const double* lut, double bound, double* sums) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    double s5 = 0.0;
    double s6 = 0.0;
    double s7 = 0.0;
    std::size_t i = 0;
    while (i < m) {
        const std::size_t stop = std::min(i + kPruneChunk, m);
        for (; i < stop; ++i) {
            // Lane k needs term (x[i], y[i + k]); one LUT row per x byte.
            // The eight y bytes arrive in a single 64-bit load (the loop
            // is load-port-bound otherwise) and shifts recover each lane's
            // byte — index values, and therefore sums, are unchanged.
            const double* lut_row = lut + (static_cast<std::size_t>(x[i]) << 8);
            std::uint64_t y8;
            std::memcpy(&y8, y + i, sizeof(y8));
            if constexpr (std::endian::native != std::endian::little) {
                y8 = __builtin_bswap64(y8);
            }
            s0 += lut_row[y8 & 0xff];
            s1 += lut_row[(y8 >> 8) & 0xff];
            s2 += lut_row[(y8 >> 16) & 0xff];
            s3 += lut_row[(y8 >> 24) & 0xff];
            s4 += lut_row[(y8 >> 32) & 0xff];
            s5 += lut_row[(y8 >> 40) & 0xff];
            s6 += lut_row[(y8 >> 48) & 0xff];
            s7 += lut_row[y8 >> 56];
        }
        if (i < m && s0 > bound && s1 > bound && s2 > bound && s3 > bound &&
            s4 > bound && s5 > bound && s6 > bound && s7 > bound) {
            return true;
        }
    }
    sums[0] = s0;
    sums[1] = s1;
    sums[2] = s2;
    sums[3] = s3;
    sums[4] = s4;
    sums[5] = s5;
    sums[6] = s6;
    sums[7] = s7;
    return false;
}

/// Four-window variant of batch8_terms for the sliding remainder (same
/// contract; the caller guarantees y[0 .. m+2] is readable).
bool batch4_terms(const std::uint8_t* x, const std::uint8_t* y, std::size_t m,
                  const double* lut, double bound, double* sums) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t i = 0;
    while (i < m) {
        const std::size_t stop = std::min(i + kPruneChunk, m);
        for (; i < stop; ++i) {
            const double* lut_row = lut + (static_cast<std::size_t>(x[i]) << 8);
            std::uint32_t y4;
            std::memcpy(&y4, y + i, sizeof(y4));
            if constexpr (std::endian::native != std::endian::little) {
                y4 = __builtin_bswap32(y4);
            }
            s0 += lut_row[y4 & 0xff];
            s1 += lut_row[(y4 >> 8) & 0xff];
            s2 += lut_row[(y4 >> 16) & 0xff];
            s3 += lut_row[y4 >> 24];
        }
        if (i < m && s0 > bound && s1 > bound && s2 > bound && s3 > bound) {
            return true;
        }
    }
    sums[0] = s0;
    sums[1] = s1;
    sums[2] = s2;
    sums[3] = s3;
    return false;
}

/// The sliding step loop with early-exit pruning, over \p windows windows
/// whose sums \p w supplies: w.eight(off, bound, sums) and w.four(off,
/// bound, sums) fill the sums of the windows from off, or return true when
/// they abandoned them with every partial above bound; w.one(off, bound)
/// returns window off's sum, or a partial sum above bound when it abandoned
/// the window. Returns the smallest raw window sum.
///
/// The best window's raw term sum is the running bound; a window whose
/// partial sum exceeds it cannot become the minimum (terms are non-negative
/// and double addition of non-negative terms is monotone), so it may be
/// abandoned mid-window. The winning window is always summed to
/// completion, in the reference order, so d_min — and therefore the
/// returned dissimilarity — is bitwise identical to the unpruned loop
/// (DESIGN.md §9). Both the single-pair path and the lockstep replay take
/// exactly these steps, so they count the same windows.
template <typename Windows>
double min_window_sum(std::size_t windows, const Windows& w, stats* st) {
    // The bound starts at +inf, so the first batch is computed in full and
    // seeds it — no special-cased first window, which would otherwise be a
    // standalone latency-bound chain per pair. min over raw window sums
    // equals the reference's min over per-window dissimilarities because
    // division by the positive constant m preserves order (DESIGN.md §9).
    double best = std::numeric_limits<double>::infinity();

    // Main loop: eight windows per step. Each window's sum is the exact
    // in-order reference double, so taking the running min over them in
    // offset order reproduces the reference loop bitwise. A batch may run
    // up to seven windows past a zero-valued one before the best != 0.0
    // exit fires — harmless, since later windows cannot go below zero.
    std::size_t off = 0;
    for (; off + 8 <= windows && best != 0.0; off += 8) {
        if (st != nullptr) {
            st->windows_total += 8;
        }
        double sums[8];
        if (w.eight(off, best, sums)) {
            if (st != nullptr) {
                st->windows_pruned += 8;
            }
            continue;
        }
        for (int k = 0; k < 8; ++k) {
            if (sums[k] > best) {
                if (st != nullptr) {
                    ++st->windows_pruned;
                }
            } else if (sums[k] < best) {
                best = sums[k];
            }
        }
    }

    // Four-window step for the mid remainder (short slide distances —
    // DHCP-style near-equal lengths — never reach the eight-window loop).
    for (; off + 4 <= windows && best != 0.0; off += 4) {
        if (st != nullptr) {
            st->windows_total += 4;
        }
        double sums[4];
        if (w.four(off, best, sums)) {
            if (st != nullptr) {
                st->windows_pruned += 4;
            }
            continue;
        }
        for (int k = 0; k < 4; ++k) {
            if (sums[k] > best) {
                if (st != nullptr) {
                    ++st->windows_pruned;
                }
            } else if (sums[k] < best) {
                best = sums[k];
            }
        }
    }

    // Remainder windows (fewer than four left), one at a time.
    for (; off < windows && best != 0.0; ++off) {
        if (st != nullptr) {
            ++st->windows_total;
        }
        const double sum = w.one(off, best);
        if (sum > best) {
            if (st != nullptr) {
                ++st->windows_pruned;
            }
        } else if (sum < best) {
            best = sum;
        }
    }
    return best;
}

/// The reference dissimilarity of a shorter side of m bytes slid along a
/// longer side of n bytes, from the smallest raw window sum.
double slide_dissimilarity(double best, std::size_t m, std::size_t n) {
    // min over off of (sum_off / m) equals (min over off of sum_off) / m:
    // IEEE division by a positive constant is monotone, so dividing once at
    // the end reproduces the reference loop's per-window divide-then-min.
    const double d_min = best / static_cast<double>(m);
    const double ratio = static_cast<double>(m) / static_cast<double>(n);
    const double penalty = 1.0 - ratio * (1.0 - d_min);
    return (static_cast<double>(m) * d_min + static_cast<double>(n - m) * penalty) /
           static_cast<double>(n);
}

/// The windows of the shorter side \p s along the longer side \p l, summed
/// as the step loop asks for them; long windows are checked against the
/// bound every kPruneChunk bytes.
struct byte_windows {
    const std::uint8_t* s;
    const std::uint8_t* l;
    std::size_t m;
    const double* lut;

    bool eight(std::size_t off, double bound, double* sums) const {
        return batch8_terms(s, l + off, m, lut, bound, sums);
    }
    bool four(std::size_t off, double bound, double* sums) const {
        return batch4_terms(s, l + off, m, lut, bound, sums);
    }
    double one(std::size_t off, double bound) const {
        double sum = 0.0;
        for (std::size_t i = 0; i < m; i += kPruneChunk) {
            sum = row_terms(s + i, l + off + i, std::min(kPruneChunk, m - i), sum, lut);
            if (sum > bound) {
                break;
            }
        }
        return sum;
    }
};

/// Window sums summed up front: the step loop reads them, never abandons.
struct summed_windows {
    const double* sums;

    bool eight(std::size_t off, double /*bound*/, double* out) const {
        std::copy_n(sums + off, 8, out);
        return false;
    }
    bool four(std::size_t off, double /*bound*/, double* out) const {
        std::copy_n(sums + off, 4, out);
        return false;
    }
    double one(std::size_t off, double /*bound*/) const { return sums[off]; }
};

/// Single-pair sliding path: shorter side \p s, longer side \p l.
double sliding_pruned(byte_view s, byte_view l, stats* st) {
    const byte_windows w{s.data(), l.data(), s.size(), term_table()};
    return slide_dissimilarity(min_window_sum(l.size() - s.size() + 1, w, st), s.size(),
                               l.size());
}

/// Most windows per pair the lockstep path sums up front.
constexpr std::size_t kLockstepWindows = 16;

/// True when \p bs is a full batch the lockstep path takes: eight
/// non-empty partners of one length other than a's, whose shorter side is
/// at most kPruneChunk bytes and which slide over at most kLockstepWindows
/// windows.
bool lockstep_fits(byte_view a, const byte_view* bs, std::size_t count) {
    if (count != kSlideBatch || a.empty()) {
        return false;
    }
    const std::size_t len = bs[0].size();
    for (std::size_t k = 0; k < count; ++k) {
        if (bs[k].size() != len) {
            return false;
        }
    }
    const std::size_t m = std::min(a.size(), len);
    const std::size_t n = std::max(a.size(), len);
    return m > 0 && m < n && m <= kPruneChunk && n - m + 1 <= kLockstepWindows;
}

/// Eight sliding pairs of one length in lockstep (lockstep_fits holds).
/// Every window of every pair is summed up front, the eight pairs' sums as
/// independent chains, each in reference element order; then each pair
/// replays min_window_sum over its own sums. A shorter side of at most
/// kPruneChunk bytes is never abandoned before its last byte by the
/// single-pair loops (their prune checks sit between chunks of a window),
/// so they sum exactly these windows to exactly these doubles; the replay
/// takes their steps, stops where they stop at best == 0 and counts what
/// they count. Every value and counter equals eight single calls.
void sliding_lockstep(byte_view a, const byte_view* bs, double* out, stats* st) {
    const bool a_shorter = a.size() < bs[0].size();
    const std::size_t m = a_shorter ? a.size() : bs[0].size();
    const std::size_t n = a_shorter ? bs[0].size() : a.size();
    const std::size_t windows = n - m + 1;
    const double* lut = term_table();
    const std::uint8_t* shared = a.data();
    const std::uint8_t* b0 = bs[0].data();
    const std::uint8_t* b1 = bs[1].data();
    const std::uint8_t* b2 = bs[2].data();
    const std::uint8_t* b3 = bs[3].data();
    const std::uint8_t* b4 = bs[4].data();
    const std::uint8_t* b5 = bs[5].data();
    const std::uint8_t* b6 = bs[6].data();
    const std::uint8_t* b7 = bs[7].data();
    double sums[kSlideBatch][kLockstepWindows];
    for (std::size_t w = 0; w < windows; ++w) {
        double s0 = 0.0;
        double s1 = 0.0;
        double s2 = 0.0;
        double s3 = 0.0;
        double s4 = 0.0;
        double s5 = 0.0;
        double s6 = 0.0;
        double s7 = 0.0;
        if (a_shorter) {
            // Term (a[i], b_k[w + i]): one LUT row per byte of a.
            for (std::size_t i = 0; i < m; ++i) {
                const double* row = lut + (static_cast<std::size_t>(shared[i]) << 8);
                const std::size_t at = w + i;
                s0 += row[b0[at]];
                s1 += row[b1[at]];
                s2 += row[b2[at]];
                s3 += row[b3[at]];
                s4 += row[b4[at]];
                s5 += row[b5[at]];
                s6 += row[b6[at]];
                s7 += row[b7[at]];
            }
        } else {
            // Term (b_k[i], a[w + i]): one LUT column per byte of a.
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t y = shared[w + i];
                s0 += lut[static_cast<std::size_t>(b0[i]) << 8 | y];
                s1 += lut[static_cast<std::size_t>(b1[i]) << 8 | y];
                s2 += lut[static_cast<std::size_t>(b2[i]) << 8 | y];
                s3 += lut[static_cast<std::size_t>(b3[i]) << 8 | y];
                s4 += lut[static_cast<std::size_t>(b4[i]) << 8 | y];
                s5 += lut[static_cast<std::size_t>(b5[i]) << 8 | y];
                s6 += lut[static_cast<std::size_t>(b6[i]) << 8 | y];
                s7 += lut[static_cast<std::size_t>(b7[i]) << 8 | y];
            }
        }
        sums[0][w] = s0;
        sums[1][w] = s1;
        sums[2][w] = s2;
        sums[3][w] = s3;
        sums[4][w] = s4;
        sums[5][w] = s5;
        sums[6][w] = s6;
        sums[7][w] = s7;
    }
    for (std::size_t k = 0; k < kSlideBatch; ++k) {
        if (st != nullptr) {
            ++st->invocations;
        }
        out[k] = slide_dissimilarity(min_window_sum(windows, summed_windows{sums[k]}, st), m, n);
    }
}

}  // namespace

void publish(const stats& st) {
    obs::counter_add("dissim.kernel.invocations_total", static_cast<double>(st.invocations));
    obs::counter_add("dissim.kernel.equal_fast_path_total",
                     static_cast<double>(st.equal_fast_path));
    obs::counter_add("dissim.kernel.windows_total", static_cast<double>(st.windows_total));
    obs::counter_add("dissim.kernel.windows_pruned_total",
                     static_cast<double>(st.windows_pruned));
}

const double* term_table() {
    static const term_table_holder holder;
    return holder.terms.data();
}

double equal_dissimilarity(byte_view x, byte_view y, stats* st) {
    expects(!x.empty(), "equal_dissimilarity: empty vector");
    expects(x.size() == y.size(), "equal_dissimilarity: length mismatch");
    if (st != nullptr) {
        ++st->invocations;
        ++st->equal_fast_path;
    }
    const double sum = row_terms(x.data(), y.data(), x.size(), 0.0, term_table());
    return sum / static_cast<double>(x.size());
}

void equal_dissimilarity_batch(byte_view x, const byte_view* ys, std::size_t count,
                               double* out, stats* st) {
    expects(count >= 1 && count <= kEqualBatch,
            "equal_dissimilarity_batch: count must be in [1, kEqualBatch]");
    // Partial batches go pair by pair; only a full batch pays for the
    // eight-chain loop.
    if (count < kEqualBatch) {
        for (std::size_t k = 0; k < count; ++k) {
            out[k] = equal_dissimilarity(x, ys[k], st);
        }
        return;
    }
    expects(!x.empty(), "equal_dissimilarity_batch: empty vector");
    const std::size_t m = x.size();
    for (std::size_t k = 0; k < count; ++k) {
        expects(ys[k].size() == m, "equal_dissimilarity_batch: length mismatch");
    }
    if (st != nullptr) {
        st->invocations += count;
        st->equal_fast_path += count;
    }
    const double* lut = term_table();
    const std::uint8_t* xp = x.data();
    const std::uint8_t* y0 = ys[0].data();
    const std::uint8_t* y1 = ys[1].data();
    const std::uint8_t* y2 = ys[2].data();
    const std::uint8_t* y3 = ys[3].data();
    const std::uint8_t* y4 = ys[4].data();
    const std::uint8_t* y5 = ys[5].data();
    const std::uint8_t* y6 = ys[6].data();
    const std::uint8_t* y7 = ys[7].data();
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    double s5 = 0.0;
    double s6 = 0.0;
    double s7 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        // Pair k's chain appends term (x[i], ys[k][i]) — in-order per pair.
        const double* lut_row = lut + (static_cast<std::size_t>(xp[i]) << 8);
        s0 += lut_row[y0[i]];
        s1 += lut_row[y1[i]];
        s2 += lut_row[y2[i]];
        s3 += lut_row[y3[i]];
        s4 += lut_row[y4[i]];
        s5 += lut_row[y5[i]];
        s6 += lut_row[y6[i]];
        s7 += lut_row[y7[i]];
    }
    const double denom = static_cast<double>(m);
    out[0] = s0 / denom;
    out[1] = s1 / denom;
    out[2] = s2 / denom;
    out[3] = s3 / denom;
    out[4] = s4 / denom;
    out[5] = s5 / denom;
    out[6] = s6 / denom;
    out[7] = s7 / denom;
}

double sliding_dissimilarity(byte_view a, byte_view b, stats* st) {
    expects(!a.empty() && !b.empty(), "sliding_dissimilarity: empty segment");
    if (a.size() == b.size()) {
        return equal_dissimilarity(a, b, st);
    }
    if (st != nullptr) {
        ++st->invocations;
    }
    const byte_view s = a.size() <= b.size() ? a : b;  // shorter
    const byte_view l = a.size() <= b.size() ? b : a;  // longer
    return sliding_pruned(s, l, st);
}

void sliding_dissimilarity_batch(byte_view a, const byte_view* bs, std::size_t count,
                                 double* out, stats* st) {
    expects(count >= 1 && count <= kSlideBatch,
            "sliding_dissimilarity_batch: count must be in [1, kSlideBatch]");
    if (lockstep_fits(a, bs, count)) {
        sliding_lockstep(a, bs, out, st);
        return;
    }
    for (std::size_t k = 0; k < count; ++k) {
        out[k] = sliding_dissimilarity(a, bs[k], st);
    }
}

}  // namespace ftc::dissim::kernel
