// Unit and property tests for the Netzob-style alignment segmenter
// (segmentation/netzob.hpp).
#include "segmentation/netzob.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "protocols/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::segmentation {
namespace {

TEST(Netzob, PairwiseScoreIdenticalStrings) {
    const netzob_segmenter seg;
    const byte_vector a{1, 2, 3, 4};
    EXPECT_EQ(seg.pairwise_score(a, a), 4 * 2);  // 4 matches * match_score
}

TEST(Netzob, PairwiseScoreAllDifferent) {
    const netzob_segmenter seg;
    const byte_vector a{1, 2, 3};
    const byte_vector b{10, 20, 30};
    EXPECT_EQ(seg.pairwise_score(a, b), -3);  // 3 mismatches beat gap pairs
}

TEST(Netzob, PairwiseScorePrefersAlignmentOverGaps) {
    const netzob_segmenter seg;
    // b = a with one inserted byte: best alignment = 4 matches + 1 gap.
    const byte_vector a{1, 2, 3, 4};
    const byte_vector b{1, 2, 99, 3, 4};
    EXPECT_EQ(seg.pairwise_score(a, b), 4 * 2 - 2);
}

TEST(Netzob, PairwiseScoreEmptyString) {
    const netzob_segmenter seg;
    const byte_vector a{1, 2, 3};
    EXPECT_EQ(seg.pairwise_score(a, byte_vector{}), -6);  // 3 gaps
}

TEST(Netzob, StaticDynamicAlternationRecovered) {
    // Messages: constant 4-byte magic, 4 random bytes, constant 2-byte
    // suffix. Column classification must place boundaries at offsets 4 & 8.
    rng rand(3);
    std::vector<byte_vector> messages;
    for (int i = 0; i < 24; ++i) {
        byte_vector msg;
        put_u32_be(msg, 0x11223344);
        put_bytes(msg, rand.bytes(4));
        put_u16_be(msg, 0xaabb);
        messages.push_back(std::move(msg));
    }
    const netzob_segmenter seg;
    const message_segments out = seg.run(messages, {});
    validate_segmentation(messages, out);
    std::size_t with_both = 0;
    for (const auto& per_message : out) {
        bool at4 = false;
        bool at8 = false;
        for (const segment& s : per_message) {
            if (s.offset == 4) {
                at4 = true;
            }
            if (s.offset == 8) {
                at8 = true;
            }
        }
        if (at4 && at8) {
            ++with_both;
        }
    }
    EXPECT_GT(with_both, messages.size() * 3 / 4);
}

TEST(Netzob, IdenticalMessagesStayWhole) {
    const std::vector<byte_vector> messages(10, byte_vector{1, 2, 3, 4, 5});
    const netzob_segmenter seg;
    const message_segments out = seg.run(messages, {});
    for (const auto& per_message : out) {
        EXPECT_EQ(per_message.size(), 1u);  // all columns static -> one field
    }
}

TEST(Netzob, SingleMessageIsOneSegment) {
    const std::vector<byte_vector> messages{{1, 2, 3}};
    const netzob_segmenter seg;
    const message_segments out = seg.run(messages, {});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].size(), 1u);
    EXPECT_EQ(out[0][0].length, 3u);
}

TEST(Netzob, VariableLengthMessagesAlign) {
    // A fixed prefix with an optional extension: alignment handles the
    // length difference via gaps and output must still cover each message.
    rng rand(4);
    std::vector<byte_vector> messages;
    for (int i = 0; i < 20; ++i) {
        byte_vector msg;
        put_u32_be(msg, 0xfeedf00d);
        put_bytes(msg, rand.bytes(2));
        if (i % 2 == 0) {
            put_u32_be(msg, 0xcafe0000 + static_cast<std::uint32_t>(i));
        }
        messages.push_back(std::move(msg));
    }
    const netzob_segmenter seg;
    const message_segments out = seg.run(messages, {});
    EXPECT_NO_THROW(validate_segmentation(messages, out));
}

TEST(Netzob, RejectsEmptyTrace) {
    const netzob_segmenter seg;
    EXPECT_THROW(seg.run({}, {}), precondition_error);
}

TEST(Netzob, DeadlineReproducesPaperFails) {
    // Large trace of long messages: the quadratic pairwise stage must hit
    // the budget and raise — the paper's "fails" entries for DHCP/SMB@1000.
    rng rand(1);
    std::vector<byte_vector> messages;
    for (int i = 0; i < 400; ++i) {
        messages.push_back(rand.bytes(300));
    }
    for (const std::size_t threads : {1u, 2u}) {
        netzob_options options;
        options.threads = threads;
        const netzob_segmenter seg(options);
        const deadline tight(0.05);
        EXPECT_THROW(seg.run(messages, tight), budget_exceeded_error) << threads << " threads";
    }
}

// Property sweep on small traces (alignment is expensive).
class NetzobInvariants
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(NetzobInvariants, SegmentsCoverMessagesExactly) {
    const auto [proto, seed] = GetParam();
    const protocols::trace t = protocols::generate_trace(proto, 16, seed);
    const std::vector<byte_vector> messages = message_bytes(t);
    const netzob_segmenter seg;
    const message_segments out = seg.run(messages, deadline(30.0));
    EXPECT_NO_THROW(validate_segmentation(messages, out));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, NetzobInvariants,
    ::testing::Combine(::testing::Values("NTP", "DNS", "NBNS", "AWDL", "AU"),
                       ::testing::Values(3ull)),
    [](const ::testing::TestParamInfo<std::tuple<const char*, std::uint64_t>>& info) {
        return std::string(std::get<0>(info.param)) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

// The profile-width cap is a property of the input: a message or a merge
// over it is malformed input, so a lenient run quarantines the message.
std::vector<byte_vector> with_oversize_message() {
    rng rand(5);
    std::vector<byte_vector> messages;
    for (int i = 0; i < 20; ++i) {
        messages.push_back(rand.bytes(60));
    }
    messages.push_back(rand.bytes(9000));
    return messages;
}

TEST(Netzob, OversizeMessageIsAParseError) {
    const netzob_segmenter seg;
    for (const std::vector<byte_vector>& messages :
         {with_oversize_message(), std::vector<byte_vector>{byte_vector(9000, 7)}}) {
        try {
            seg.run(messages, {});
            FAIL() << "expected parse_error";
        } catch (const parse_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("message " + std::to_string(messages.size() - 1)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("max_profile_width 8192"), std::string::npos) << what;
        }
    }
}

TEST(Netzob, MergeWiderThanTheCapIsAParseError) {
    // Free gaps and costly mismatches align two unrelated 16-byte messages
    // side by side: 32 columns, over a cap of 24.
    netzob_options options;
    options.gap_score = 0;
    options.mismatch_score = -5;
    options.max_profile_width = 24;
    const netzob_segmenter seg(options);
    const std::vector<byte_vector> messages{byte_vector(16, 1), byte_vector(16, 2)};
    EXPECT_THROW(seg.run(messages, {}), parse_error);
}

TEST(Netzob, SegmentLenientQuarantinesAnOversizeMessage) {
    const std::vector<byte_vector> messages = with_oversize_message();
    const netzob_segmenter seg;
    diag::error_sink lenient(diag::policy::lenient);
    const lenient_segmentation out = segment_lenient(seg, messages, {}, lenient);
    ASSERT_EQ(out.messages.size(), 20u);
    for (std::size_t i = 0; i < 20; ++i) {
        EXPECT_EQ(out.surviving[i], i);
    }
    EXPECT_NO_THROW(validate_segmentation(out.messages, out.segments));
    EXPECT_EQ(lenient.quarantined(), 1u);
    EXPECT_EQ(lenient.count(diag::category::segmentation), 2u);  // batch retry + quarantine
    const diag::diagnostic& quarantined = lenient.diagnostics().back();
    EXPECT_EQ(quarantined.sev, diag::severity::error);
    EXPECT_EQ(quarantined.record_index, 20u);
    EXPECT_NE(quarantined.detail.find("max_profile_width"), std::string::npos);

    diag::error_sink strict(diag::policy::strict);
    EXPECT_THROW(segment_lenient(seg, messages, {}, strict), parse_error);
}

namespace reference {

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
    ensures(width <= max_width, "netzob: profile width exceeds cap");
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


/// The segmenter's run before the lane batches and the nearest-partner
/// guide tree: the scalar pairwise loop and the row-major closest-pair scan.
message_segments run(const netzob_segmenter& seg, const netzob_options& options,
                     const std::vector<byte_vector>& messages, const deadline& dl) {
    const std::size_t n = messages.size();
    expects(n > 0, "netzob: empty trace");

    if (n == 1) {
        message_segments single(1);
        if (!messages[0].empty()) {
            single[0].push_back(segment{0, 0, messages[0].size()});
        }
        return single;
    }

    // Stage 1: pairwise NW similarity -> normalized distance matrix.
    // This is the quadratic stage that blows up on long messages.
    std::vector<double> dist(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        dl.check("Netzob pairwise alignment");
        const byte_view a{messages[i]};
        for (std::size_t j = i + 1; j < n; ++j) {
            const byte_view b{messages[j]};
            const int score = seg.pairwise_score(a, b);
            const double best = static_cast<double>(options.match_score) *
                                static_cast<double>(std::max(a.size(), b.size()));
            const double d = best > 0.0 ? 1.0 - static_cast<double>(score) / best : 0.0;
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

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

    for (std::size_t merges = 0; merges + 1 < n; ++merges) {
        dl.check("Netzob progressive alignment");
        // Find the closest active pair.
        double best = std::numeric_limits<double>::max();
        std::size_t bi = 0;
        std::size_t bj = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!active[i]) {
                continue;
            }
            for (std::size_t j = i + 1; j < n; ++j) {
                if (!active[j]) {
                    continue;
                }
                if (dist[i * n + j] < best) {
                    best = dist[i * n + j];
                    bi = i;
                    bj = j;
                }
            }
        }
        // Align and merge bj into bi.
        const std::vector<column_summary> sa = summarize(profiles[bi]);
        const std::vector<column_summary> sb = summarize(profiles[bj]);
        const std::vector<align_op> ops = align_profiles(sa, sb, options, dl);
        profiles[bi] = merge_profiles(profiles[bi], profiles[bj], ops,
                                      options.max_profile_width);
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
                       cols[c].conservation >= options.static_threshold &&
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

}  // namespace reference

/// Scoring schemes for the lane tests: the default, a flat one (every
/// coefficient the same size, many tied cells), one with free gaps, and
/// one whose large coefficients send nearly every batch to the
/// pairwise_score fallback and run the rest in lanes near the int16 limit.
std::vector<netzob_options> scoring_schemes() {
    std::vector<netzob_options> out(4);
    out[1].match_score = 1;
    out[1].mismatch_score = -1;
    out[1].gap_score = -1;
    out[2].match_score = 3;
    out[2].mismatch_score = -2;
    out[2].gap_score = 0;
    out[3].match_score = 900;
    out[3].mismatch_score = -700;
    out[3].gap_score = -1100;
    return out;
}

byte_vector random_message(rng& r, std::size_t len, bool two_letters) {
    byte_vector v(len);
    for (std::uint8_t& b : v) {
        b = two_letters ? static_cast<std::uint8_t>(r.uniform(0, 1) == 0 ? 'a' : 'b') : r.byte();
    }
    return v;
}

TEST(NetzobLanes, BatchScoresEqualPairwiseScore) {
    rng r(17);
    for (const netzob_options& options : scoring_schemes()) {
        const netzob_segmenter seg(options);
        for (int trial = 0; trial < 12; ++trial) {
            const bool two_letters = trial % 2 == 1;
            const byte_vector a = random_message(r, r.uniform(0, 300), two_letters);
            // 1..21 partners: full batches of eight and partial last ones,
            // with lengths spread so that lanes pad to very different widths.
            std::vector<byte_vector> owned;
            const std::size_t count = r.uniform(1, 21);
            for (std::size_t k = 0; k < count; ++k) {
                owned.push_back(random_message(r, r.uniform(0, 300), two_letters));
            }
            if (trial == 0) {
                owned.front() = a;  // identical partner
                owned.back().clear();
            }
            const std::vector<byte_view> partners(owned.begin(), owned.end());
            std::vector<int> out(count, std::numeric_limits<int>::min());
            seg.pairwise_scores(a, partners, out);
            for (std::size_t k = 0; k < count; ++k) {
                EXPECT_EQ(out[k], seg.pairwise_score(a, partners[k]))
                    << "trial " << trial << " partner " << k << " (|a| " << a.size()
                    << ", |b| " << partners[k].size() << ")";
            }
        }
    }
}

TEST(NetzobLanes, EmptyAndTinyInputs) {
    const netzob_segmenter seg;
    const byte_vector empty;
    const byte_vector one{7};
    const std::vector<byte_view> partners{empty, one, one, empty};
    std::vector<int> out(4);
    seg.pairwise_scores(empty, partners, out);
    EXPECT_EQ(out, (std::vector<int>{0, -2, -2, 0}));
    seg.pairwise_scores(one, partners, out);
    EXPECT_EQ(out, (std::vector<int>{-2, 2, 2, -2}));
    seg.pairwise_scores(one, {}, {});
    std::vector<int> short_out(3);
    EXPECT_THROW(seg.pairwise_scores(one, partners, short_out), precondition_error);
}

TEST(NetzobLanes, Int16EdgeLengths) {
    // Default coefficients (c = 2): 8191 + 8192 is the longest lane batch
    // (c(|a| + M) = 32766); 8192 + 8192 falls back to pairwise_score. The
    // long partners have closed-form scores, which spares a scalar pass: a
    // prefix of the partner scores 2|a| - 2(8192 - |a|), and a partner made
    // of a byte that a lacks scores -|a| - 2(8192 - |a|).
    rng r(23);
    const netzob_segmenter seg;
    const byte_vector parent = random_message(r, 8192, true);
    const byte_vector absent(8192, 'c');
    const byte_vector short_partner = random_message(r, 40, true);
    const std::vector<byte_view> partners{parent, absent, short_partner};
    for (const std::size_t len : {8191u, 8192u}) {
        const byte_view a(parent.data(), len);
        const int rest = 8192 - static_cast<int>(len);
        std::vector<int> out(partners.size());
        seg.pairwise_scores(a, partners, out);
        EXPECT_EQ(out[0], 2 * static_cast<int>(len) - 2 * rest) << "|a| " << len;
        EXPECT_EQ(out[1], -static_cast<int>(len) - 2 * rest) << "|a| " << len;
        EXPECT_EQ(out[2], seg.pairwise_score(a, short_partner)) << "|a| " << len;
    }
}

/// Non-protocol populations for the run differential. Family 0: random
/// bytes at lengths 0-300, always with an empty and a 1-byte message.
/// Family 1: duplicates of a few short messages (tied distances and tied
/// closest pairs). Family 2: one message repeated. Family 3: a two-letter
/// alphabet at lengths 4-24. Family 4: a static prefix and suffix around
/// a two-letter middle of varying length, so that static columns, and
/// with them the segments, follow the merge order. Family 5: distinct
/// two-letter messages of one length, whose averaged distances often tie
/// after a merge; under a 0.5 threshold every gap-free column is static,
/// so a different tie break shows in the segments.
std::vector<byte_vector> population(int family, std::size_t n, std::uint64_t seed) {
    rng r(seed);
    std::vector<byte_vector> out;
    if (family == 0) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_message(r, r.uniform(0, 300), false));
        }
        out.front().clear();
        out.back().resize(1);
    } else if (family == 1) {
        std::vector<byte_vector> pool;
        for (int p = 0; p < 3; ++p) {
            pool.push_back(random_message(r, r.uniform(1, 12), p == 0));
        }
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(r.pick(pool));
        }
    } else if (family == 2) {
        out.assign(n, random_message(r, r.uniform(1, 40), false));
    } else if (family == 3) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_message(r, r.uniform(4, 24), true));
        }
    } else if (family == 4) {
        const byte_vector prefix = random_message(r, 4, false);
        const byte_vector suffix = random_message(r, 3, false);
        for (std::size_t i = 0; i < n; ++i) {
            byte_vector msg = prefix;
            put_bytes(msg, random_message(r, r.uniform(1, 6), true));
            put_bytes(msg, suffix);
            out.push_back(std::move(msg));
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_message(r, 8, true));
        }
    }
    return out;
}

TEST(NetzobDifferential, RunMatchesTheScalarRowMajorReference) {
    // Default scoring, and a looser static threshold under which more
    // columns are static and the segments follow the alignment closely.
    std::vector<netzob_options> schemes(2);
    schemes[1].static_threshold = 0.5;
    std::size_t populations = 0;
    std::size_t multi_segment = 0;
    for (int family = 0; family < 6; ++family) {
        for (const std::size_t n : {1u, 2u, 9u, 17u, 40u}) {
            if (family == 0 && n == 40) {
                continue;  // long random messages: n = 17 covers them
            }
            const std::uint64_t seeds = family == 5 ? 30 : 3;
            for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
                const std::vector<byte_vector> messages =
                    population(family, n, seed * 100 + static_cast<std::uint64_t>(family));
                for (netzob_options options : schemes) {
                    const message_segments want = reference::run(
                        netzob_segmenter(options), options, messages, deadline(60.0));
                    ++populations;
                    for (const auto& segs : want) {
                        multi_segment += segs.size() > 1 ? 1 : 0;
                    }
                    for (const std::size_t threads : {1u, 2u, 4u}) {
                        options.threads = threads;
                        EXPECT_EQ(netzob_segmenter(options).run(messages, deadline(60.0)), want)
                            << "family " << family << " n " << n << " seed " << seed
                            << " threshold " << options.static_threshold << " threads "
                            << threads;
                    }
                }
            }
        }
    }
    // The comparison must see segments that depend on the alignment.
    EXPECT_GT(multi_segment, populations);
}

}  // namespace
}  // namespace ftc::segmentation
