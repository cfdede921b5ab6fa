// Unit tests for the pcap file format reader/writer (pcap/pcap.hpp).
#include "pcap/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "testing/temp_path.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::pcap {
namespace {

capture sample_capture() {
    capture cap;
    cap.link = linktype::ethernet;
    packet p1;
    p1.ts_sec = 1300000000;
    p1.ts_usec = 123456;
    p1.data = {0x01, 0x02, 0x03};
    packet p2;
    p2.ts_sec = 1300000001;
    p2.ts_usec = 0;
    p2.data = {};
    cap.packets = {p1, p2};
    return cap;
}

TEST(PcapFormat, InMemoryRoundTrip) {
    const capture original = sample_capture();
    const byte_vector bytes = to_pcap_bytes(original);
    const capture parsed = from_pcap_bytes(bytes);
    EXPECT_EQ(parsed.link, original.link);
    ASSERT_EQ(parsed.packets.size(), 2u);
    EXPECT_EQ(parsed.packets[0].ts_sec, 1300000000u);
    EXPECT_EQ(parsed.packets[0].ts_usec, 123456u);
    EXPECT_EQ(parsed.packets[0].data, (byte_vector{0x01, 0x02, 0x03}));
    EXPECT_TRUE(parsed.packets[1].data.empty());
}

TEST(PcapFormat, GlobalHeaderLayout) {
    const byte_vector bytes = to_pcap_bytes(sample_capture());
    ASSERT_GE(bytes.size(), 24u);
    EXPECT_EQ(get_u32_be(bytes, 0), 0xa1b2c3d4u);  // magic
    EXPECT_EQ(get_u16_be(bytes, 4), 2u);           // version major
    EXPECT_EQ(get_u16_be(bytes, 6), 4u);           // version minor
    EXPECT_EQ(get_u32_be(bytes, 20), 1u);          // linktype ethernet
}

TEST(PcapFormat, ReadsLittleEndianFiles) {
    // Hand-build a byte-swapped (little-endian producer) file.
    byte_vector bytes;
    put_u32_le(bytes, 0xa1b2c3d4);  // magic stored in LE order
    put_u16_le(bytes, 2);
    put_u16_le(bytes, 4);
    put_u32_le(bytes, 0);
    put_u32_le(bytes, 0);
    put_u32_le(bytes, 65535);
    put_u32_le(bytes, 147);  // user0
    put_u32_le(bytes, 42);   // ts_sec
    put_u32_le(bytes, 7);    // ts_usec
    put_u32_le(bytes, 2);    // incl_len
    put_u32_le(bytes, 2);    // orig_len
    bytes.push_back(0xaa);
    bytes.push_back(0xbb);
    const capture parsed = from_pcap_bytes(bytes);
    EXPECT_EQ(parsed.link, linktype::user0);
    ASSERT_EQ(parsed.packets.size(), 1u);
    EXPECT_EQ(parsed.packets[0].ts_sec, 42u);
    EXPECT_EQ(parsed.packets[0].data, (byte_vector{0xaa, 0xbb}));
}

TEST(PcapFormat, ReadsNanosecondMagic) {
    byte_vector bytes;
    put_u32_be(bytes, 0xa1b23c4d);
    put_u16_be(bytes, 2);
    put_u16_be(bytes, 4);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 65535);
    put_u32_be(bytes, 1);
    const capture parsed = from_pcap_bytes(bytes);
    EXPECT_TRUE(parsed.packets.empty());
}

TEST(PcapFormat, NanosecondTimestampsAreDownscaled) {
    byte_vector bytes;
    put_u32_be(bytes, 0xa1b23c4d);  // nanosecond magic
    put_u16_be(bytes, 2);
    put_u16_be(bytes, 4);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 65535);
    put_u32_be(bytes, 147);        // user0
    put_u32_be(bytes, 42);         // ts_sec
    put_u32_be(bytes, 123456789);  // 123456789 ns = 123456 us
    put_u32_be(bytes, 1);          // incl_len
    put_u32_be(bytes, 1);          // orig_len
    bytes.push_back(0xcc);
    const capture parsed = from_pcap_bytes(bytes);
    ASSERT_EQ(parsed.packets.size(), 1u);
    EXPECT_EQ(parsed.packets[0].ts_sec, 42u);
    EXPECT_EQ(parsed.packets[0].ts_usec, 123456u);
}

TEST(PcapFormat, NanosecondSwappedMagicAlsoDownscales) {
    byte_vector bytes;
    put_u32_le(bytes, 0xa1b23c4d);  // ns magic in little-endian producer order
    put_u16_le(bytes, 2);
    put_u16_le(bytes, 4);
    put_u32_le(bytes, 0);
    put_u32_le(bytes, 0);
    put_u32_le(bytes, 65535);
    put_u32_le(bytes, 147);
    put_u32_le(bytes, 7);
    put_u32_le(bytes, 999999999);  // just under a second
    put_u32_le(bytes, 1);
    put_u32_le(bytes, 1);
    bytes.push_back(0xdd);
    const capture parsed = from_pcap_bytes(bytes);
    ASSERT_EQ(parsed.packets.size(), 1u);
    EXPECT_EQ(parsed.packets[0].ts_usec, 999999u);
}

TEST(PcapFormat, ImplausibleRecordLengthRejectedBeforeAllocation) {
    // A corrupt incl_len of ~3.2 GB must throw a parse error without ever
    // attempting the allocation.
    byte_vector bytes;
    put_u32_be(bytes, 0xa1b2c3d4);
    put_u16_be(bytes, 2);
    put_u16_be(bytes, 4);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 0);
    put_u32_be(bytes, 65535);
    put_u32_be(bytes, 147);
    put_u32_be(bytes, 1);           // ts_sec
    put_u32_be(bytes, 2);           // ts_usec
    put_u32_be(bytes, 0xc0000000);  // absurd incl_len
    put_u32_be(bytes, 0xc0000000);  // orig_len
    put_fill(bytes, 32, 0xee);
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, RecordLengthBoundFollowsSnaplen) {
    // A record larger than the 256 KiB floor parses when the global header
    // announces a matching snaplen...
    capture cap;
    cap.link = linktype::user0;
    cap.snaplen = 2u * 1024 * 1024;
    packet p;
    p.data.assign(300u * 1024, 0x5a);
    cap.packets.push_back(std::move(p));
    const capture parsed = from_pcap_bytes(to_pcap_bytes(cap));
    ASSERT_EQ(parsed.packets.size(), 1u);
    EXPECT_EQ(parsed.packets[0].data.size(), 300u * 1024);

    // ...but is rejected when the stated snaplen is small.
    capture lying = parsed;
    lying.snaplen = 65535;
    EXPECT_THROW(from_pcap_bytes(to_pcap_bytes(lying)), parse_error);
}

TEST(PcapFormat, RejectsBadMagic) {
    byte_vector bytes(24, 0x00);
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, RejectsShortHeader) {
    const byte_vector bytes(10, 0x00);
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, RejectsUnsupportedVersion) {
    byte_vector bytes;
    put_u32_be(bytes, 0xa1b2c3d4);
    put_u16_be(bytes, 3);  // future major version
    put_u16_be(bytes, 0);
    put_fill(bytes, 16, 0);
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, RejectsTruncatedRecordHeader) {
    byte_vector bytes = to_pcap_bytes(sample_capture());
    bytes.resize(24 + 8);  // half a record header
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, RejectsTruncatedPacketBody) {
    byte_vector bytes = to_pcap_bytes(sample_capture());
    bytes.resize(24 + 16 + 1);  // record announces 3 bytes, only 1 present
    EXPECT_THROW(from_pcap_bytes(bytes), parse_error);
}

TEST(PcapFormat, FileRoundTrip) {
    const auto path = testing::temp_path("ftclust_test_roundtrip.pcap");
    const capture original = sample_capture();
    write_file(path, original);
    const capture parsed = read_file(path);
    EXPECT_EQ(parsed.packets.size(), original.packets.size());
    EXPECT_EQ(parsed.packets[0].data, original.packets[0].data);
    std::filesystem::remove(path);
}

TEST(PcapFormat, ReadMissingFileThrows) {
    EXPECT_THROW(read_file("/nonexistent/dir/nothing.pcap"), error);
}

TEST(PcapFormat, WriteToInvalidPathThrows) {
    EXPECT_THROW(write_file("/nonexistent/dir/out.pcap", sample_capture()), error);
}

TEST(PcapFormat, LargeRandomCaptureRoundTrip) {
    rng rand(99);
    capture cap;
    cap.link = linktype::user0;
    for (int i = 0; i < 200; ++i) {
        packet p;
        p.ts_sec = static_cast<std::uint32_t>(1300000000 + i);
        p.ts_usec = static_cast<std::uint32_t>(rand.uniform(0, 999999));
        p.data = rand.bytes(rand.uniform(0, 300));
        cap.packets.push_back(std::move(p));
    }
    const capture parsed = from_pcap_bytes(to_pcap_bytes(cap));
    ASSERT_EQ(parsed.packets.size(), cap.packets.size());
    for (std::size_t i = 0; i < cap.packets.size(); ++i) {
        EXPECT_EQ(parsed.packets[i].data, cap.packets[i].data);
        EXPECT_EQ(parsed.packets[i].ts_usec, cap.packets[i].ts_usec);
    }
}

}  // namespace
}  // namespace ftc::pcap
