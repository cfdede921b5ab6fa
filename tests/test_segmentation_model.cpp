// Unit tests for the segment model (segmentation/segment.hpp).
#include "segmentation/segment.hpp"

#include <gtest/gtest.h>

#include "protocols/registry.hpp"
#include <string>

#include "util/check.hpp"

namespace ftc::segmentation {
namespace {

TEST(SegmentModel, SegmentBytesSlicesCorrectly) {
    const std::vector<byte_vector> messages{{1, 2, 3, 4, 5}};
    const segment s{0, 1, 3};
    const byte_view bytes = segment_bytes(messages, s);
    ASSERT_EQ(bytes.size(), 3u);
    EXPECT_EQ(bytes[0], 2);
    EXPECT_EQ(bytes[2], 4);
}

TEST(SegmentModel, SegmentBytesValidatesBounds) {
    const std::vector<byte_vector> messages{{1, 2, 3}};
    EXPECT_THROW(segment_bytes(messages, segment{1, 0, 1}), precondition_error);
    EXPECT_THROW(segment_bytes(messages, segment{0, 2, 2}), precondition_error);
}

TEST(SegmentModel, ValidateAcceptsExactCover) {
    const std::vector<byte_vector> messages{{1, 2, 3, 4}, {5, 6}};
    const message_segments segs{
        {{0, 0, 2}, {0, 2, 2}},
        {{1, 0, 2}},
    };
    EXPECT_NO_THROW(validate_segmentation(messages, segs));
}

TEST(SegmentModel, ValidateRejectsGap) {
    const std::vector<byte_vector> messages{{1, 2, 3, 4}};
    const message_segments segs{{{0, 0, 2}, {0, 3, 1}}};
    EXPECT_THROW(validate_segmentation(messages, segs), error);
}

TEST(SegmentModel, ValidateNamesTheMessageAndTheOffset) {
    const std::vector<byte_vector> messages{{1, 2}, {1, 2, 3, 4}};
    const message_segments segs{{{0, 0, 2}}, {{1, 0, 2}, {1, 3, 1}}};
    try {
        validate_segmentation(messages, segs);
        FAIL() << "a gap in message 1 passed validation";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("message 1: segment at 3, expected 2"),
                  std::string::npos)
            << e.what();
    }
    try {
        validate_segmentation(messages, {{{0, 0, 2}}, {{1, 0, 3}}});
        FAIL() << "a short cover of message 1 passed validation";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("message 1: segments cover 3 of 4 bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SegmentModel, ValidateRejectsOverlap) {
    const std::vector<byte_vector> messages{{1, 2, 3, 4}};
    const message_segments segs{{{0, 0, 3}, {0, 2, 2}}};
    EXPECT_THROW(validate_segmentation(messages, segs), error);
}

TEST(SegmentModel, ValidateRejectsShortCoverAndZeroLength) {
    const std::vector<byte_vector> messages{{1, 2, 3, 4}};
    EXPECT_THROW(validate_segmentation(messages, {{{0, 0, 3}}}), error);
    EXPECT_THROW(validate_segmentation(messages, {{{0, 0, 0}, {0, 0, 4}}}), error);
}

TEST(SegmentModel, ValidateRejectsWrongMessageIndexOrCount) {
    const std::vector<byte_vector> messages{{1, 2}};
    EXPECT_THROW(validate_segmentation(messages, {{{1, 0, 2}}}), error);
    EXPECT_THROW(validate_segmentation(messages, {}), error);
}

TEST(SegmentModel, GroundTruthSegmentsMatchAnnotations) {
    const protocols::trace t = protocols::generate_trace("NTP", 5, 3);
    const message_segments segs = segments_from_annotations(t);
    const std::vector<byte_vector> messages = message_bytes(t);
    EXPECT_NO_THROW(validate_segmentation(messages, segs));
    ASSERT_EQ(segs.size(), 5u);
    EXPECT_EQ(segs[0].size(), t.messages[0].fields.size());
    for (std::size_t f = 0; f < segs[0].size(); ++f) {
        EXPECT_EQ(segs[0][f].offset, t.messages[0].fields[f].offset);
        EXPECT_EQ(segs[0][f].length, t.messages[0].fields[f].length);
    }
}

TEST(SegmentModel, FactoryKnowsAllSegmenters) {
    EXPECT_EQ(make_segmenter("NEMESYS")->name(), "NEMESYS");
    EXPECT_EQ(make_segmenter("CSP")->name(), "CSP");
    EXPECT_EQ(make_segmenter("Netzob")->name(), "Netzob");
    EXPECT_THROW(make_segmenter("Wireshark"), precondition_error);
}

}  // namespace
}  // namespace ftc::segmentation
