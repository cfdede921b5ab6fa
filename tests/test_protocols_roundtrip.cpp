// Property tests: every protocol generator round-trips through its
// dissector and through real pcap encapsulation (protocols/registry.hpp).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "pcap/decap.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"

namespace ftc::protocols {
namespace {

using Param = std::tuple<const char*, std::uint64_t>;

class ProtocolRoundTrip : public ::testing::TestWithParam<Param> {
protected:
    std::string protocol() const { return std::get<0>(GetParam()); }
    std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(ProtocolRoundTrip, AnnotationsAreValid) {
    const trace t = generate_trace(protocol(), 40, seed());
    ASSERT_EQ(t.messages.size(), 40u);
    for (const annotated_message& msg : t.messages) {
        EXPECT_NO_THROW(validate_annotations(msg));
        EXPECT_FALSE(msg.bytes.empty());
    }
}

TEST_P(ProtocolRoundTrip, DissectorAgreesWithGenerator) {
    const trace t = generate_trace(protocol(), 40, seed());
    for (const annotated_message& msg : t.messages) {
        const std::vector<field_annotation> dissected = dissect(protocol(), msg.bytes);
        ASSERT_EQ(dissected.size(), msg.fields.size())
            << protocol() << ": field count mismatch";
        for (std::size_t f = 0; f < dissected.size(); ++f) {
            EXPECT_EQ(dissected[f].offset, msg.fields[f].offset)
                << protocol() << " field " << f << " (" << msg.fields[f].name << ")";
            EXPECT_EQ(dissected[f].length, msg.fields[f].length)
                << protocol() << " field " << f << " (" << msg.fields[f].name << ")";
            EXPECT_EQ(dissected[f].type, msg.fields[f].type)
                << protocol() << " field " << f << " (" << msg.fields[f].name << ")";
        }
    }
}

TEST_P(ProtocolRoundTrip, GeneratedMessagesAreUnique) {
    const trace t = generate_trace(protocol(), 60, seed());
    std::set<byte_vector, byte_less> seen;
    for (const annotated_message& msg : t.messages) {
        EXPECT_TRUE(seen.insert(msg.bytes).second);
    }
}

TEST_P(ProtocolRoundTrip, SameSeedReproducesTrace) {
    const trace a = generate_trace(protocol(), 20, seed());
    const trace b = generate_trace(protocol(), 20, seed());
    ASSERT_EQ(a.messages.size(), b.messages.size());
    for (std::size_t i = 0; i < a.messages.size(); ++i) {
        EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
    }
}

TEST_P(ProtocolRoundTrip, PcapRoundTripPreservesPayloads) {
    const trace t = generate_trace(protocol(), 30, seed());
    const pcap::capture cap = trace_to_capture(t);
    // Through real file bytes, not just in-memory structures.
    const pcap::capture reparsed = pcap::from_pcap_bytes(pcap::to_pcap_bytes(cap));
    const std::vector<byte_vector> payloads = capture_payloads(reparsed);
    ASSERT_EQ(payloads.size(), t.messages.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (protocol() == "SMB") {
            // SMB payloads keep their NBSS session prefix after reassembly.
            ASSERT_GE(payloads[i].size(), 4u);
            const byte_vector body(payloads[i].begin() + 4, payloads[i].end());
            EXPECT_EQ(body, t.messages[i].bytes);
        } else {
            EXPECT_EQ(payloads[i], t.messages[i].bytes);
        }
    }
}

TEST_P(ProtocolRoundTrip, WiresharkPathRebuildsGroundTruth) {
    // Generator -> pcap -> payload extraction -> dissector must yield the
    // exact ground truth the generator annotated (the substitution for the
    // paper's Wireshark-dissector pipeline).
    const trace t = generate_trace(protocol(), 25, seed());
    const pcap::capture cap = trace_to_capture(t);
    const trace rebuilt = trace_from_payloads(protocol(), capture_payloads(cap));
    ASSERT_EQ(rebuilt.messages.size(), t.messages.size());
    for (std::size_t i = 0; i < t.messages.size(); ++i) {
        EXPECT_EQ(rebuilt.messages[i].bytes, t.messages[i].bytes);
        ASSERT_EQ(rebuilt.messages[i].fields.size(), t.messages[i].fields.size());
        for (std::size_t f = 0; f < t.messages[i].fields.size(); ++f) {
            EXPECT_EQ(rebuilt.messages[i].fields[f].offset, t.messages[i].fields[f].offset);
            EXPECT_EQ(rebuilt.messages[i].fields[f].length, t.messages[i].fields[f].length);
            EXPECT_EQ(rebuilt.messages[i].fields[f].type, t.messages[i].fields[f].type);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolRoundTrip,
    ::testing::Combine(::testing::Values("NTP", "DNS", "NBNS", "DHCP", "SMB", "AWDL", "AU"),
                       ::testing::Values(1ull, 42ull, 20260706ull)),
    [](const ::testing::TestParamInfo<Param>& info) {
        return std::string(std::get<0>(info.param)) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Registry, KnowsAllProtocols) {
    const auto names = protocol_names();
    EXPECT_EQ(names.size(), 7u);
    for (const auto name : names) {
        EXPECT_NO_THROW(make_source(name, 1));
    }
}

TEST(Registry, RejectsUnknownProtocol) {
    EXPECT_THROW(make_source("QUIC", 1), precondition_error);
    EXPECT_THROW(dissect("QUIC", byte_vector{}), precondition_error);
}

TEST(Registry, PaperTraceSizes) {
    EXPECT_EQ(paper_trace_size("NTP"), 1000u);
    EXPECT_EQ(paper_trace_size("AWDL"), 768u);
    EXPECT_EQ(paper_trace_size("AU"), 123u);
}

TEST(Registry, LinktypesMatchEncapsulation) {
    EXPECT_EQ(protocol_linktype("NTP"), pcap::linktype::ethernet);
    EXPECT_EQ(protocol_linktype("SMB"), pcap::linktype::ethernet);
    EXPECT_EQ(protocol_linktype("AWDL"), pcap::linktype::ieee802_11);
    EXPECT_EQ(protocol_linktype("AU"), pcap::linktype::user0);
}

TEST(Trace, DeduplicateDropsRepeatedPayloads) {
    trace t;
    t.protocol = "X";
    annotated_message m;
    m.bytes = {1, 2, 3};
    m.fields = {{0, 3, field_type::bytes, "b"}};
    t.messages = {m, m, m};
    const trace d = deduplicate(t);
    EXPECT_EQ(d.messages.size(), 1u);
}

TEST(Trace, TruncateKeepsPrefix) {
    trace t = generate_trace("NTP", 10, 3);
    const trace cut = truncate(t, 4);
    ASSERT_EQ(cut.messages.size(), 4u);
    EXPECT_EQ(cut.messages[0].bytes, t.messages[0].bytes);
    EXPECT_EQ(truncate(t, 100).messages.size(), 10u);
}

TEST(Trace, TotalBytesSumsMessageSizes) {
    const trace t = generate_trace("NTP", 5, 1);
    EXPECT_EQ(t.total_bytes(), 5u * 48u);
}

}  // namespace
}  // namespace ftc::protocols
