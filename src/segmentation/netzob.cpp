#include "segmentation/netzob.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::segmentation {

namespace {

/// One aligned message: byte values, or kGap for an alignment gap.
constexpr std::int16_t kGap = -1;
using aligned_row = std::vector<std::int16_t>;

/// A profile: a set of messages aligned to a common column space.
struct profile {
    std::vector<std::size_t> message_indices;  ///< original message ids per row
    std::vector<aligned_row> rows;             ///< all rows have equal width

    std::size_t width() const { return rows.empty() ? 0 : rows.front().size(); }
};

/// Column summary for profile-profile alignment: the dominant value and its
/// conservation among non-gap cells.
struct column_summary {
    std::int16_t consensus = kGap;
    double conservation = 0.0;  ///< dominant count / non-gap count
    double gap_fraction = 1.0;
};

std::vector<column_summary> summarize(const profile& p) {
    std::vector<column_summary> out(p.width());
    for (std::size_t c = 0; c < p.width(); ++c) {
        std::array<std::uint32_t, 256> counts{};
        std::uint32_t non_gap = 0;
        for (const aligned_row& row : p.rows) {
            if (row[c] != kGap) {
                ++counts[static_cast<std::size_t>(row[c])];
                ++non_gap;
            }
        }
        column_summary& s = out[c];
        if (non_gap == 0) {
            continue;
        }
        std::uint32_t best = 0;
        for (std::size_t v = 0; v < counts.size(); ++v) {
            if (counts[v] > best) {
                best = counts[v];
                s.consensus = static_cast<std::int16_t>(v);
            }
        }
        s.conservation = static_cast<double>(best) / static_cast<double>(non_gap);
        s.gap_fraction =
            1.0 - static_cast<double>(non_gap) / static_cast<double>(p.rows.size());
    }
    return out;
}

/// Alignment op emitted by the profile-profile traceback.
enum class align_op : std::uint8_t { both, gap_a, gap_b };

/// Eight int16 DP cells, one per partner of a lane batch. A generic vector
/// type needs no target switch: GCC lowers its operators to SSE2
/// pcmpeqw/paddw/pmaxsw on plain x86-64 and to NEON on AArch64.
using lanes = std::int16_t __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(lanes) / sizeof(std::int16_t);

lanes splat(std::int64_t v) {
    return lanes{} + static_cast<std::int16_t>(v);
}

}  // namespace

int netzob_segmenter::pairwise_score(byte_view a, byte_view b) const {
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<int> prev(m + 1);
    std::vector<int> curr(m + 1);
    for (std::size_t j = 0; j <= m; ++j) {
        prev[j] = static_cast<int>(j) * options_.gap_score;
    }
    for (std::size_t i = 1; i <= n; ++i) {
        curr[0] = static_cast<int>(i) * options_.gap_score;
        const std::uint8_t ai = a[i - 1];
        for (std::size_t j = 1; j <= m; ++j) {
            const int diag =
                prev[j - 1] + (ai == b[j - 1] ? options_.match_score : options_.mismatch_score);
            const int up = prev[j] + options_.gap_score;
            const int left = curr[j - 1] + options_.gap_score;
            curr[j] = std::max(diag, std::max(up, left));
        }
        std::swap(prev, curr);
    }
    return prev[m];
}

void netzob_segmenter::pairwise_scores(byte_view a, std::span<const byte_view> partners,
                                       std::span<int> out) const {
    expects(out.size() >= partners.size(), "netzob: pairwise_scores output too short");
    // Every DP cell within (|a|, M) lies in [-c(|a| + M), c(|a| + M)]: a
    // path there takes at most |a| + M steps of magnitude <= c.
    const std::int64_t c = std::max({std::abs(std::int64_t{options_.match_score}),
                                     std::abs(std::int64_t{options_.mismatch_score}),
                                     std::abs(std::int64_t{options_.gap_score})});
    const lanes match = splat(options_.match_score);
    const lanes mismatch = splat(options_.mismatch_score);
    const lanes gap = splat(options_.gap_score);
    std::vector<lanes> column;  // partner bytes per DP column
    std::vector<lanes> row;     // one DP row over columns 0..M
    for (std::size_t first = 0; first < partners.size(); first += kLanes) {
        const std::span<const byte_view> batch =
            partners.subspan(first, std::min(kLanes, partners.size() - first));
        std::size_t width = 0;
        for (const byte_view b : batch) {
            width = std::max(width, b.size());
        }
        if (c * static_cast<std::int64_t>(a.size() + width) >
            std::numeric_limits<std::int16_t>::max()) {
            for (std::size_t k = 0; k < batch.size(); ++k) {
                out[first + k] = pairwise_score(a, batch[k]);
            }
            continue;
        }
        // Columns past a partner's length hold padding; its score is read
        // at its own length, which no padding cell can reach.
        column.assign(width, lanes{});
        for (std::size_t k = 0; k < batch.size(); ++k) {
            for (std::size_t j = 0; j < batch[k].size(); ++j) {
                column[j][k] = static_cast<std::int16_t>(batch[k][j]);
            }
        }
        row.resize(width + 1);
        for (std::size_t j = 0; j <= width; ++j) {
            row[j] = splat(static_cast<std::int64_t>(j) * options_.gap_score);
        }
        for (std::size_t i = 1; i <= a.size(); ++i) {
            const lanes ai = splat(a[i - 1]);
            lanes diag = row[0];
            lanes left = splat(static_cast<std::int64_t>(i) * options_.gap_score);
            row[0] = left;
            for (std::size_t j = 1; j <= width; ++j) {
                const lanes up = row[j];
                const lanes d = diag + (ai == column[j - 1] ? match : mismatch);
                const lanes u = up + gap;
                const lanes du = d > u ? d : u;
                const lanes l = left + gap;
                left = du > l ? du : l;
                row[j] = left;
                diag = up;
            }
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
            out[first + k] = row[batch[k].size()][k];
        }
    }
}

namespace {

/// Profile-profile Needleman-Wunsch over column summaries; returns the op
/// sequence from start to end.
std::vector<align_op> align_profiles(const std::vector<column_summary>& a,
                                     const std::vector<column_summary>& b,
                                     const netzob_options& opt, const deadline& dl) {
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    auto score_cols = [&](const column_summary& ca, const column_summary& cb) {
        if (ca.consensus == kGap || cb.consensus == kGap) {
            return 0.0;  // all-gap column aligns neutrally
        }
        if (ca.consensus == cb.consensus) {
            return static_cast<double>(opt.match_score) *
                   std::min(ca.conservation, cb.conservation);
        }
        return static_cast<double>(opt.mismatch_score);
    };

    // Full DP with traceback matrix (byte-sized ops).
    std::vector<double> prev(m + 1);
    std::vector<double> curr(m + 1);
    std::vector<std::uint8_t> back((n + 1) * (m + 1));
    const double gap = opt.gap_score;
    for (std::size_t j = 0; j <= m; ++j) {
        prev[j] = static_cast<double>(j) * gap;
        back[j] = 2;  // gap_a (consume b)
    }
    for (std::size_t i = 1; i <= n; ++i) {
        if (i % 128 == 0) {
            dl.check("Netzob profile alignment");
        }
        curr[0] = static_cast<double>(i) * gap;
        back[i * (m + 1)] = 1;  // gap_b (consume a)
        for (std::size_t j = 1; j <= m; ++j) {
            const double diag = prev[j - 1] + score_cols(a[i - 1], b[j - 1]);
            const double up = prev[j] + gap;
            const double left = curr[j - 1] + gap;
            double best = diag;
            std::uint8_t op = 0;
            if (up > best) {
                best = up;
                op = 1;
            }
            if (left > best) {
                best = left;
                op = 2;
            }
            curr[j] = best;
            back[i * (m + 1) + j] = op;
        }
        std::swap(prev, curr);
    }

    std::vector<align_op> ops;
    std::size_t i = n;
    std::size_t j = m;
    while (i > 0 || j > 0) {
        const std::uint8_t op = back[i * (m + 1) + j];
        if (i > 0 && j > 0 && op == 0) {
            ops.push_back(align_op::both);
            --i;
            --j;
        } else if (i > 0 && (op == 1 || j == 0)) {
            ops.push_back(align_op::gap_b);
            --i;
        } else {
            ops.push_back(align_op::gap_a);
            --j;
        }
    }
    std::reverse(ops.begin(), ops.end());
    return ops;
}

/// Merge two profiles along an op sequence.
profile merge_profiles(const profile& a, const profile& b, const std::vector<align_op>& ops,
                       std::size_t max_width) {
    profile out;
    out.message_indices = a.message_indices;
    out.message_indices.insert(out.message_indices.end(), b.message_indices.begin(),
                               b.message_indices.end());
    const std::size_t width = ops.size();
    if (width > max_width) {
        throw parse_error(message("netzob: aligned profile is ", width,
                                  " columns wide, over max_profile_width ", max_width));
    }
    out.rows.reserve(a.rows.size() + b.rows.size());
    for (const aligned_row& row : a.rows) {
        aligned_row expanded;
        expanded.reserve(width);
        std::size_t c = 0;
        for (const align_op op : ops) {
            if (op == align_op::gap_a) {
                expanded.push_back(kGap);
            } else {
                expanded.push_back(row[c]);
                ++c;
            }
        }
        out.rows.push_back(std::move(expanded));
    }
    for (const aligned_row& row : b.rows) {
        aligned_row expanded;
        expanded.reserve(width);
        std::size_t c = 0;
        for (const align_op op : ops) {
            if (op == align_op::gap_b) {
                expanded.push_back(kGap);
            } else {
                expanded.push_back(row[c]);
                ++c;
            }
        }
        out.rows.push_back(std::move(expanded));
    }
    return out;
}

}  // namespace

message_segments netzob_segmenter::run(const std::vector<byte_vector>& messages,
                                       const deadline& dl) const {
    obs::span sp("segmentation.netzob");
    sp.count("messages", messages.size());
    const std::size_t n = messages.size();
    expects(n > 0, "netzob: empty trace");

    for (std::size_t m = 0; m < n; ++m) {
        if (messages[m].size() > options_.max_profile_width) {
            throw parse_error(message("netzob: message ", m, " is ", messages[m].size(),
                                      " bytes, over max_profile_width ",
                                      options_.max_profile_width));
        }
    }
    if (n == 1) {
        message_segments single(1);
        if (!messages[0].empty()) {
            single[0].push_back(segment{0, 0, messages[0].size()});
        }
        return single;
    }

    // Stage 1: pairwise NW similarity -> normalized distance matrix.
    // This is the quadratic stage that blows up on long messages. Each
    // message scores its later partners in stable length order, so a lane
    // batch holds partners of similar length; every cell is written by
    // one row only.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return messages[x].size() < messages[y].size();
    });
    std::vector<double> dist(n * n, 0.0);
    util::parallel_for(n - 1, 1, options_.threads, [&](std::size_t begin, std::size_t end) {
        std::vector<byte_view> partners;
        std::vector<int> scores;
        for (std::size_t p = begin; p < end; ++p) {
            dl.check("Netzob pairwise alignment");
            const std::size_t i = order[p];
            const byte_view a{messages[i]};
            partners.clear();
            for (std::size_t q = p + 1; q < n; ++q) {
                partners.emplace_back(messages[order[q]]);
            }
            scores.resize(partners.size());
            pairwise_scores(a, partners, scores);
            for (std::size_t k = 0; k < partners.size(); ++k) {
                const std::size_t j = order[p + 1 + k];
                const byte_view b = partners[k];
                const int score = scores[k];
                const double best = static_cast<double>(options_.match_score) *
                                    static_cast<double>(std::max(a.size(), b.size()));
                const double d = best > 0.0 ? 1.0 - static_cast<double>(score) / best : 0.0;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
    });

    // Stage 2: UPGMA guide tree, executed as an agglomeration order over
    // active profiles (average linkage).
    std::vector<profile> profiles(n);
    std::vector<std::size_t> cluster_size(n, 1);
    std::vector<bool> active(n, true);
    for (std::size_t i = 0; i < n; ++i) {
        profiles[i].message_indices = {i};
        aligned_row row(messages[i].size());
        for (std::size_t c = 0; c < messages[i].size(); ++c) {
            row[c] = static_cast<std::int16_t>(messages[i][c]);
        }
        profiles[i].rows.push_back(std::move(row));
    }

    // Each row's nearest partner: the first active j > i at the row
    // minimum. The first row holding the global minimum then names the
    // pair a row-major scan of the matrix would find.
    std::vector<std::size_t> nearest(n, n);
    std::vector<double> nearest_dist(n, std::numeric_limits<double>::infinity());
    const auto rescan = [&](std::size_t i) {
        nearest[i] = n;
        nearest_dist[i] = std::numeric_limits<double>::infinity();
        for (std::size_t j = i + 1; j < n; ++j) {
            if (active[j] && dist[i * n + j] < nearest_dist[i]) {
                nearest_dist[i] = dist[i * n + j];
                nearest[i] = j;
            }
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        rescan(i);
    }

    for (std::size_t merges = 0; merges + 1 < n; ++merges) {
        dl.check("Netzob progressive alignment");
        // Find the closest active pair.
        double best = std::numeric_limits<double>::max();
        std::size_t bi = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (active[i] && nearest_dist[i] < best) {
                best = nearest_dist[i];
                bi = i;
            }
        }
        const std::size_t bj = nearest[bi];
        // Align and merge bj into bi.
        const std::vector<column_summary> sa = summarize(profiles[bi]);
        const std::vector<column_summary> sb = summarize(profiles[bj]);
        const std::vector<align_op> ops = align_profiles(sa, sb, options_, dl);
        profiles[bi] = merge_profiles(profiles[bi], profiles[bj], ops,
                                      options_.max_profile_width);
        profiles[bj] = profile{};
        active[bj] = false;
        // Average-linkage distance update.
        const double wi = static_cast<double>(cluster_size[bi]);
        const double wj = static_cast<double>(cluster_size[bj]);
        for (std::size_t k = 0; k < n; ++k) {
            if (!active[k] || k == bi) {
                continue;
            }
            const double dik = dist[bi * n + k];
            const double djk = dist[bj * n + k];
            const double merged = (wi * dik + wj * djk) / (wi + wj);
            dist[bi * n + k] = merged;
            dist[k * n + bi] = merged;
        }
        cluster_size[bi] += cluster_size[bj];
        // Row bi changed throughout, bj left every row, and a row k < bi
        // changed only at (k, bi); rows past bj did not change.
        for (std::size_t k = 0; k < bj; ++k) {
            if (!active[k]) {
                continue;
            }
            if (k == bi || nearest[k] == bi || nearest[k] == bj) {
                rescan(k);
            } else if (k < bi) {
                const double d = dist[k * n + bi];
                if (d < nearest_dist[k] || (d == nearest_dist[k] && bi < nearest[k])) {
                    nearest_dist[k] = d;
                    nearest[k] = bi;
                }
            }
        }
    }

    // The single remaining active profile holds the full alignment.
    std::size_t root = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
            root = i;
            break;
        }
    }
    const profile& full = profiles[root];

    // Stage 3: column classification -> field boundaries in column space.
    const std::vector<column_summary> cols = summarize(full);
    std::vector<bool> is_static(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c) {
        is_static[c] = cols[c].consensus != kGap &&
                       cols[c].conservation >= options_.static_threshold &&
                       cols[c].gap_fraction == 0.0;
    }
    std::vector<std::size_t> column_bounds;  // boundary *before* column c
    for (std::size_t c = 1; c < cols.size(); ++c) {
        if (is_static[c] != is_static[c - 1]) {
            column_bounds.push_back(c);
        }
    }

    // Stage 4: project boundaries back onto each message.
    message_segments out(n);
    for (std::size_t r = 0; r < full.rows.size(); ++r) {
        const std::size_t msg_idx = full.message_indices[r];
        const aligned_row& row = full.rows[r];
        const std::size_t msg_len = messages[msg_idx].size();
        std::vector<std::size_t> bounds;
        std::size_t offset = 0;
        std::size_t bound_cursor = 0;
        for (std::size_t c = 0; c < row.size(); ++c) {
            while (bound_cursor < column_bounds.size() && column_bounds[bound_cursor] == c) {
                if (offset > 0 && offset < msg_len) {
                    bounds.push_back(offset);
                }
                ++bound_cursor;
            }
            if (row[c] != kGap) {
                ++offset;
            }
        }
        std::vector<segment>& segs = out[msg_idx];
        std::size_t start = 0;
        for (std::size_t b : bounds) {
            if (b > start) {
                segs.push_back(segment{msg_idx, start, b - start});
                start = b;
            }
        }
        if (msg_len > start) {
            segs.push_back(segment{msg_idx, start, msg_len - start});
        }
    }
    validate_segmentation(messages, out);
    return out;
}

}  // namespace ftc::segmentation
