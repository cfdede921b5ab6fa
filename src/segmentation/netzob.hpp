/// \file netzob.hpp
/// Netzob-style alignment segmenter (after Bossert, Guihéry, Hiet —
/// AsiaCCS 2014: "Towards Automated Protocol Reverse Engineering Using
/// Semantic Information").
///
/// Netzob infers message formats by *sequence alignment*: a global multiple
/// alignment of all messages is built progressively along a UPGMA guide
/// tree computed from pairwise Needleman-Wunsch similarities; aligned
/// columns are then classified as static (conserved byte value) or dynamic,
/// and runs of equal classification become fields whose boundaries are
/// projected back onto each message.
///
/// The pairwise alignment stage is quadratic in both trace size and message
/// length — exactly the "exponential increase in runtime [for] large
/// messages" that makes Netzob fail on the larger DHCP and SMB traces in
/// the paper's Table II. Implementations poll the deadline and throw
/// ftc::budget_exceeded_error, which the benches report as "fails".
///
/// Stage 1 visits the messages in stable length order and scores each one
/// against its later, longer partners eight at a time, one int16 lane per
/// partner, fanned out over `threads` lanes; the guide tree keeps each
/// row's nearest partner instead of rescanning the matrix per merge. Both
/// reproduce the scalar pairwise loop and the row-major closest-pair scan
/// bit for bit, at any thread count (DESIGN.md §3.8).
#pragma once

#include <span>

#include "segmentation/segment.hpp"

namespace ftc::segmentation {

/// Tunables of the alignment pipeline.
struct netzob_options {
    int match_score = 2;      ///< NW score for equal bytes
    int mismatch_score = -1;  ///< NW score for differing bytes
    int gap_score = -2;       ///< NW gap penalty
    /// Columns whose dominant value covers at least this fraction of
    /// non-gap rows count as static.
    double static_threshold = 1.0;
    /// Cap on profile width. A longer message, or a merge that would
    /// produce a wider alignment, is malformed input (ftc::parse_error).
    std::size_t max_profile_width = 8192;
    /// Lanes of the pairwise stage (util/thread_pool.hpp conventions:
    /// 0 = hardware, 1 = serial). The segmentation is identical at any
    /// setting.
    std::size_t threads = 1;
};

/// Multiple-sequence-alignment segmenter.
class netzob_segmenter final : public segmenter {
public:
    netzob_segmenter() = default;
    explicit netzob_segmenter(netzob_options options) : options_(options) {}

    std::string_view name() const override { return "Netzob"; }

    message_segments run(const std::vector<byte_vector>& messages,
                         const deadline& dl) const override;

    /// Needleman-Wunsch similarity score of two byte strings — exposed for
    /// tests.
    int pairwise_score(byte_view a, byte_view b) const;

    /// Batch form of pairwise_score: out[k] = pairwise_score(a, partners[k])
    /// bit for bit. Scores eight partners per int16 lane batch while the
    /// batch fits the int16 range, and by pairwise_score otherwise. Throws
    /// ftc::precondition_error when \p out is shorter than \p partners.
    void pairwise_scores(byte_view a, std::span<const byte_view> partners,
                         std::span<int> out) const;

private:
    netzob_options options_;
};

}  // namespace ftc::segmentation
