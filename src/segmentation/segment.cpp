#include "segmentation/segment.hpp"

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "segmentation/csp.hpp"
#include "segmentation/nemesys.hpp"
#include "segmentation/netzob.hpp"
#include "util/check.hpp"

namespace ftc::segmentation {

byte_view segment_bytes(const std::vector<byte_vector>& messages, const segment& seg) {
    expects(seg.message_index < messages.size(), "segment_bytes: message index out of range");
    const byte_vector& msg = messages[seg.message_index];
    expects(seg.offset + seg.length <= msg.size(), "segment_bytes: segment exceeds message");
    return byte_view{msg}.subspan(seg.offset, seg.length);
}

void validate_segmentation(const std::vector<byte_vector>& messages,
                           const message_segments& segs) {
    ensures(messages.size() == segs.size(), "segmentation covers ", segs.size(), " of ",
            messages.size(), " messages");
    for (std::size_t m = 0; m < messages.size(); ++m) {
        std::size_t cursor = 0;
        for (const segment& s : segs[m]) {
            ensures(s.message_index == m, "segment has wrong message index");
            ensures(s.length > 0, "segment has zero length");
            ensures(s.offset == cursor, "message ", m, ": segment at ", s.offset, ", expected ",
                    cursor);
            cursor += s.length;
        }
        ensures(cursor == messages[m].size(), "message ", m, ": segments cover ", cursor, " of ",
                messages[m].size(), " bytes");
    }
}

message_segments segments_from_annotations(const protocols::trace& input) {
    message_segments out;
    out.reserve(input.messages.size());
    for (std::size_t m = 0; m < input.messages.size(); ++m) {
        std::vector<segment> segs;
        segs.reserve(input.messages[m].fields.size());
        for (const protocols::field_annotation& f : input.messages[m].fields) {
            segs.push_back(segment{m, f.offset, f.length});
        }
        out.push_back(std::move(segs));
    }
    return out;
}

std::vector<byte_vector> message_bytes(const protocols::trace& input) {
    std::vector<byte_vector> out;
    out.reserve(input.messages.size());
    for (const protocols::annotated_message& msg : input.messages) {
        out.push_back(msg.bytes);
    }
    return out;
}

lenient_segmentation segment_lenient(const segmenter& seg,
                                     const std::vector<byte_vector>& messages,
                                     const deadline& dl, diag::error_sink& sink) {
    obs::span sp("segmentation");
    sp.count("messages", messages.size());
    lenient_segmentation out;
    out.messages.reserve(messages.size());
    out.surviving.reserve(messages.size());
    for (std::size_t m = 0; m < messages.size(); ++m) {
        // Empty payloads carry nothing to segment; quarantining them is a
        // lenient-mode nicety — strict mode passes them through untouched
        // to keep the legacy behavior byte-identical.
        if (sink.lenient() && messages[m].empty()) {
            sink.report({diag::category::segmentation, diag::severity::error, m, 0,
                         message("message ", m, ": empty payload")});
            continue;
        }
        out.messages.push_back(messages[m]);
        out.surviving.push_back(m);
    }

    obs::progress_stage("segmentation", out.messages.size());
    try {
        out.segments = seg.run(out.messages, dl);
        // Batch segmenters report completion wholesale; the per-message
        // fallback below ticks message by message.
        obs::progress_add(out.messages.size());
        sp.count("surviving", out.messages.size());
        return out;
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const parse_error& e) {
        if (!sink.lenient()) {
            throw;
        }
        sink.report({diag::category::segmentation, diag::severity::warning, 0, 0,
                     message("batch segmentation failed (", e.what(),
                             "); retrying per message")});
    }

    // Per-message fallback: quarantine the individual offenders.
    lenient_segmentation retried;
    obs::progress_stage("segmentation.retry", out.messages.size());
    for (std::size_t i = 0; i < out.messages.size(); ++i) {
        obs::progress_add(1);
        const std::vector<byte_vector> single{out.messages[i]};
        try {
            message_segments segs = seg.run(single, dl);
            for (segment& s : segs.front()) {
                s.message_index = retried.messages.size();
            }
            retried.segments.push_back(std::move(segs.front()));
            retried.messages.push_back(std::move(out.messages[i]));
            retried.surviving.push_back(out.surviving[i]);
        } catch (const budget_exceeded_error&) {
            throw;
        } catch (const parse_error& e) {
            sink.report({diag::category::segmentation, diag::severity::error,
                         out.surviving[i], 0, e.what()});
        }
    }
    sp.count("surviving", retried.messages.size());
    return retried;
}

std::unique_ptr<segmenter> make_segmenter(std::string_view name, std::size_t threads) {
    if (name == "NEMESYS") {
        return std::make_unique<nemesys_segmenter>();
    }
    if (name == "CSP") {
        return std::make_unique<csp_segmenter>();
    }
    if (name == "Netzob") {
        netzob_options options;
        options.threads = threads;
        return std::make_unique<netzob_segmenter>(options);
    }
    throw precondition_error(message("unknown segmenter: ", std::string{name}));
}

}  // namespace ftc::segmentation
