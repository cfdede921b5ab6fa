/// \file segment.hpp
/// Segment model: field candidates produced by message segmentation.
///
/// A *segment* (paper Sec. III-B) is a byte range of one message, produced
/// by a segmenter as a candidate for a true protocol field. Segments of one
/// message are contiguous and cover it completely.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "protocols/field.hpp"
#include "util/byteio.hpp"
#include "util/diag.hpp"
#include "util/stopwatch.hpp"

namespace ftc::segmentation {

/// A byte range within one message of a trace.
struct segment {
    std::size_t message_index = 0;
    std::size_t offset = 0;
    std::size_t length = 0;

    auto operator<=>(const segment&) const = default;
};

/// Segmentation of a whole trace: one segment list per message, in message
/// order. Invariant (checked by validate_segmentation): per message the
/// segments are sorted, contiguous and cover the message exactly.
using message_segments = std::vector<std::vector<segment>>;

/// View of a segment's bytes within its message.
byte_view segment_bytes(const std::vector<byte_vector>& messages, const segment& seg);

/// Throws ftc::error unless \p segs is a valid segmentation of \p messages.
void validate_segmentation(const std::vector<byte_vector>& messages,
                           const message_segments& segs);

/// Abstract message segmenter.
class segmenter {
public:
    virtual ~segmenter() = default;

    /// Display name ("NEMESYS", "CSP", "Netzob", "true fields").
    virtual std::string_view name() const = 0;

    /// Segment all messages. Implementations periodically poll \p dl and
    /// throw ftc::budget_exceeded_error when the budget is exhausted
    /// (reproducing the paper's "fails" entries).
    virtual message_segments run(const std::vector<byte_vector>& messages,
                                 const deadline& dl) const = 0;
};

/// Perfect segmentation from ground-truth annotations (the "Wireshark
/// dissector" path used for Table I).
message_segments segments_from_annotations(const protocols::trace& input);

/// Extract the raw message bytes of a trace (segmenter input).
std::vector<byte_vector> message_bytes(const protocols::trace& input);

/// Factory: "NEMESYS", "CSP" or "Netzob". Throws on unknown names.
/// \p threads sets Netzob's pairwise-stage lanes (util/thread_pool.hpp
/// conventions); NEMESYS and CSP ignore it. The segmentation is identical
/// at any setting.
std::unique_ptr<segmenter> make_segmenter(std::string_view name, std::size_t threads = 1);

/// Result of segment_lenient: segmentation of the surviving messages plus
/// the mapping back to the caller's message indices.
struct lenient_segmentation {
    std::vector<byte_vector> messages;   ///< surviving messages, in order
    message_segments segments;           ///< segmentation of `messages`
    std::vector<std::size_t> surviving;  ///< original index of messages[i]
};

/// Segment \p messages with per-message quarantine under \p sink's policy.
///
/// Empty payloads are quarantined up front (category segmentation). The
/// segmenter then runs on the surviving batch; if it throws ftc::parse_error
/// under a lenient sink, it is re-run message by message and the individual
/// offenders are quarantined instead of aborting the batch. Under a strict
/// sink any segmenter parse_error propagates unchanged, matching the legacy
/// all-or-nothing behavior. ftc::budget_exceeded_error always propagates:
/// running out of budget is not a property of one malformed message.
lenient_segmentation segment_lenient(const segmenter& seg,
                                     const std::vector<byte_vector>& messages,
                                     const deadline& dl, diag::error_sink& sink);

}  // namespace ftc::segmentation
