/// \file registry.hpp
/// Uniform access to all protocol workloads: create a generator by name,
/// synthesize deduplicated traces, dissect wire bytes back into ground
/// truth, and round-trip traces through real pcap files.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "protocols/field.hpp"

namespace ftc::protocols {

/// Type-erased message generator.
class message_source {
public:
    virtual ~message_source() = default;

    /// Produce the next annotated message of the workload.
    virtual annotated_message next() = 0;
};

/// Protocol names accepted by the factory functions below.
std::vector<std::string_view> protocol_names();

/// The paper's trace size for each protocol's large trace (Table I):
/// 1000 for the public protocols, 768 for AWDL, 123 for AU.
std::size_t paper_trace_size(std::string_view protocol);

/// Create a generator for \p protocol ("NTP", "DNS", "NBNS", "DHCP", "SMB",
/// "AWDL", "AU"; case-sensitive). Throws ftc::precondition_error for
/// unknown names.
std::unique_ptr<message_source> make_source(std::string_view protocol, std::uint64_t seed);

/// Link type used when a protocol's trace is written to pcap.
pcap::linktype protocol_linktype(std::string_view protocol);

/// Dissect \p payload according to \p protocol's ground-truth dissector.
std::vector<field_annotation> dissect(std::string_view protocol, byte_view payload);

/// Generate a trace of exactly \p unique_messages distinct messages
/// (duplicates are regenerated away, mirroring the paper's preprocessing).
trace generate_trace(std::string_view protocol, std::size_t unique_messages,
                     std::uint64_t seed);

/// Wrap a trace into a pcap capture using the protocol's encapsulation
/// (Ethernet/IPv4/UDP, TCP+NBSS for SMB, raw records for AWDL/AU).
pcap::capture trace_to_capture(const trace& input);

/// Extract the application payloads of a capture in record order.
std::vector<byte_vector> capture_payloads(const pcap::capture& cap);

/// The same, reporting malformed and skipped frames into \p sink (see
/// pcap::extract_datagrams) — the decode step of every analysis job.
std::vector<byte_vector> capture_payloads(const pcap::capture& cap, diag::error_sink& sink);

/// Re-annotate raw payloads with the protocol's dissector, producing a
/// ground-truth trace from wire bytes alone (the "Wireshark" path).
trace trace_from_payloads(std::string_view protocol, const std::vector<byte_vector>& payloads);

}  // namespace ftc::protocols
