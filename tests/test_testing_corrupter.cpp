// Unit tests for the deterministic pcap fault injector (testing/corrupter.hpp).
#include "testing/corrupter.hpp"

#include <gtest/gtest.h>

#include "pcap/decap.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "testing/temp_path.hpp"

namespace ftc::testing {
namespace {

byte_vector dns_capture_bytes(std::size_t messages = 40, std::uint64_t seed = 3) {
    return pcap::to_pcap_bytes(
        protocols::trace_to_capture(protocols::generate_trace("DNS", messages, seed)));
}

TEST(Corrupter, ZeroFractionIsIdentity) {
    const byte_vector clean = dns_capture_bytes();
    corruption_options opt;
    opt.fault_fraction = 0.0;
    corruption_log log;
    EXPECT_EQ(corrupt_pcap_bytes(clean, opt, &log), clean);
    EXPECT_TRUE(log.faults.empty());
}

TEST(Corrupter, SameSeedSameOutput) {
    const byte_vector clean = dns_capture_bytes();
    corruption_options opt;
    opt.fault_fraction = 0.3;
    opt.seed = 42;
    corruption_log log_a;
    corruption_log log_b;
    const byte_vector a = corrupt_pcap_bytes(clean, opt, &log_a);
    const byte_vector b = corrupt_pcap_bytes(clean, opt, &log_b);
    EXPECT_EQ(a, b);
    ASSERT_EQ(log_a.faults.size(), log_b.faults.size());
    for (std::size_t i = 0; i < log_a.faults.size(); ++i) {
        EXPECT_EQ(log_a.faults[i].kind, log_b.faults[i].kind);
        EXPECT_EQ(log_a.faults[i].record_index, log_b.faults[i].record_index);
    }
    EXPECT_GT(log_a.faults.size(), 0u);
}

TEST(Corrupter, DifferentSeedsDiffer) {
    const byte_vector clean = dns_capture_bytes();
    corruption_options opt;
    opt.fault_fraction = 0.3;
    opt.seed = 1;
    const byte_vector a = corrupt_pcap_bytes(clean, opt);
    opt.seed = 2;
    const byte_vector b = corrupt_pcap_bytes(clean, opt);
    EXPECT_NE(a, b);
}

TEST(Corrupter, LogMatchesInjectedKinds) {
    const byte_vector clean = dns_capture_bytes(60, 9);
    corruption_options opt;
    opt.fault_fraction = 0.5;
    opt.seed = 7;
    corruption_log log;
    corrupt_pcap_bytes(clean, opt, &log);
    EXPECT_EQ(log.count(fault_kind::bit_flip) + log.count(fault_kind::snap) +
                  log.count(fault_kind::length_garbage),
              log.faults.size());
    for (const fault& f : log.faults) {
        EXPECT_TRUE(log.faulted(f.record_index));
    }
    EXPECT_FALSE(log.faulted(SIZE_MAX));
}

TEST(Corrupter, RestrictedKindsAreHonored) {
    const byte_vector clean = dns_capture_bytes(60, 9);
    corruption_options opt;
    opt.fault_fraction = 0.5;
    opt.seed = 7;
    opt.flip_bits = false;
    opt.truncate_records = false;  // only corrupt_lengths remain
    corruption_log log;
    corrupt_pcap_bytes(clean, opt, &log);
    EXPECT_GT(log.faults.size(), 0u);
    EXPECT_EQ(log.count(fault_kind::length_garbage), log.faults.size());
}

TEST(Corrupter, EveryFaultIsDetectedByLenientIngestion) {
    // The corrupter's core guarantee: no fault can silently alter a
    // surviving message. Every faulted record must be quarantined either by
    // the pcap reader or by decapsulation.
    const byte_vector clean = dns_capture_bytes(80, 11);
    corruption_options opt;
    opt.fault_fraction = 0.25;
    opt.seed = 123;
    corruption_log log;
    const byte_vector corrupt = corrupt_pcap_bytes(clean, opt, &log);
    ASSERT_GT(log.faults.size(), 0u);

    diag::error_sink sink(diag::policy::lenient);
    const pcap::capture cap = pcap::from_pcap_bytes(corrupt, sink);
    const auto datagrams = pcap::extract_datagrams(cap, {}, sink);

    const std::size_t total_records = pcap::from_pcap_bytes(clean).packets.size();
    EXPECT_EQ(datagrams.size(), total_records - log.faults.size());
    EXPECT_EQ(sink.quarantined(), log.faults.size());
}

TEST(Corrupter, RejectsNonPcapInput) {
    const byte_vector junk(64, 0xab);
    EXPECT_THROW(corrupt_pcap_bytes(junk, {}), parse_error);
    EXPECT_THROW(corrupt_pcap_bytes(byte_vector{0x01, 0x02}, {}), parse_error);
}

TEST(Corrupter, FileRoundTrip) {
    const auto in_path = temp_path("ftclust_corrupter_in.pcap");
    const auto out_path = temp_path("ftclust_corrupter_out.pcap");
    pcap::write_file(in_path,
                     protocols::trace_to_capture(protocols::generate_trace("DNS", 20, 3)));
    corruption_options opt;
    opt.fault_fraction = 0.2;
    corruption_log log;
    corrupt_pcap_file(in_path, out_path, opt, &log);
    EXPECT_TRUE(std::filesystem::exists(out_path));
    diag::error_sink sink(diag::policy::lenient);
    const pcap::capture cap = pcap::read_file(out_path, sink);
    EXPECT_GT(cap.packets.size(), 0u);
    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
}

}  // namespace
}  // namespace ftc::testing
