// Unit tests for frame/capture building (pcap/encap.hpp).
#include "pcap/encap.hpp"

#include <gtest/gtest.h>

#include "testing/temp_path.hpp"
#include "util/check.hpp"

namespace ftc::pcap {
namespace {

const mac_address kMacA{0x02, 0, 0, 0, 0, 1};
const mac_address kMacB{0x02, 0, 0, 0, 0, 2};

flow_key udp_flow() {
    return {make_ipv4(10, 1, 1, 1), make_ipv4(10, 1, 1, 2), 40000, 123, transport::udp};
}

flow_key tcp_flow() {
    return {make_ipv4(10, 1, 1, 1), make_ipv4(10, 1, 1, 2), 40001, 445, transport::tcp};
}

TEST(Encap, UdpFrameDecapsulatesToSamePayload) {
    const byte_vector payload{0x11, 0x22, 0x33};
    const byte_vector frame = build_udp_frame(kMacA, kMacB, udp_flow(), payload);
    capture cap;
    cap.link = linktype::ethernet;
    cap.packets.push_back({0, 0, frame});
    const auto datagrams = extract_datagrams(cap);
    ASSERT_EQ(datagrams.size(), 1u);
    EXPECT_EQ(datagrams[0].payload, payload);
    EXPECT_EQ(datagrams[0].flow, udp_flow());
}

TEST(Encap, TcpFrameCarriesSequenceNumber) {
    const byte_vector frame =
        build_tcp_frame(kMacA, kMacB, tcp_flow(), 0xabcd1234, byte_vector{1});
    const tcp_header tcp =
        parse_tcp(byte_view{frame}.subspan(ethernet_header::size + 20));
    EXPECT_EQ(tcp.seq, 0xabcd1234u);
}

TEST(Encap, NbssWrapEncodesLength) {
    const byte_vector msg(300, 0x41);
    const byte_vector framed = wrap_nbss(msg);
    ASSERT_EQ(framed.size(), 304u);
    EXPECT_EQ(framed[0], 0x00);
    EXPECT_EQ((framed[1] << 16) | (framed[2] << 8) | framed[3], 300);
}

TEST(Encap, NbssRejectsOversizedMessage) {
    const byte_vector huge(1 << 17, 0x00);
    EXPECT_THROW(wrap_nbss(huge), precondition_error);
}

TEST(Encap, CaptureBuilderUdpRoundTrip) {
    capture_builder builder(linktype::ethernet);
    builder.add_message(udp_flow(), byte_vector{1, 2, 3});
    builder.add_message(udp_flow().reversed(), byte_vector{4, 5});
    const capture cap = std::move(builder).finish();
    ASSERT_EQ(cap.packets.size(), 2u);
    const auto datagrams = extract_datagrams(cap);
    ASSERT_EQ(datagrams.size(), 2u);
    EXPECT_EQ(datagrams[0].payload, (byte_vector{1, 2, 3}));
    EXPECT_EQ(datagrams[1].payload, (byte_vector{4, 5}));
    EXPECT_EQ(datagrams[1].flow, udp_flow().reversed());
}

TEST(Encap, CaptureBuilderTcpSequencesPerFlow) {
    capture_builder builder(linktype::ethernet);
    builder.add_message(tcp_flow(), byte_vector{0xff, 'S', 'M', 'B', 1});
    builder.add_message(tcp_flow(), byte_vector{0xff, 'S', 'M', 'B', 2});
    const capture cap = std::move(builder).finish();
    ASSERT_EQ(cap.packets.size(), 2u);
    const auto datagrams = extract_datagrams(cap);
    ASSERT_EQ(datagrams.size(), 2u);
    // NBSS prefix is part of the reassembled message.
    EXPECT_EQ(datagrams[0].payload.size(), 4u + 5u);
    EXPECT_EQ(datagrams[0].payload[4], 0xff);
    EXPECT_EQ(datagrams[0].payload.back(), 1);
    EXPECT_EQ(datagrams[1].payload.back(), 2);
}

TEST(Encap, CaptureBuilderTimestampsAdvance) {
    capture_builder builder(linktype::ethernet);
    for (int i = 0; i < 3; ++i) {
        builder.add_message(udp_flow(), byte_vector{static_cast<std::uint8_t>(i)});
    }
    const capture cap = std::move(builder).finish();
    EXPECT_LT(cap.packets[0].ts_usec + cap.packets[0].ts_sec * 1000000.0,
              cap.packets[2].ts_usec + cap.packets[2].ts_sec * 1000000.0);
}

TEST(Encap, CaptureBuilderRawRequiresRawLink) {
    capture_builder eth(linktype::ethernet);
    EXPECT_THROW(eth.add_raw(byte_vector{1}), precondition_error);
    capture_builder raw(linktype::user0);
    EXPECT_THROW(raw.add_message(udp_flow(), byte_vector{1}), precondition_error);
    raw.add_raw(byte_vector{0x42});
    const capture cap = std::move(raw).finish();
    ASSERT_EQ(cap.packets.size(), 1u);
    EXPECT_EQ(cap.packets[0].data, (byte_vector{0x42}));
}

TEST(Encap, FullFileRoundTripThroughDisk) {
    capture_builder builder(linktype::ethernet);
    builder.add_message(udp_flow(), byte_vector{9, 8, 7});
    const capture cap = std::move(builder).finish();
    const auto path = testing::temp_path("ftclust_encap_roundtrip.pcap");
    write_file(path, cap);
    const capture loaded = read_file(path);
    const auto datagrams = extract_datagrams(loaded);
    ASSERT_EQ(datagrams.size(), 1u);
    EXPECT_EQ(datagrams[0].payload, (byte_vector{9, 8, 7}));
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace ftc::pcap
