#include "protocols/registry.hpp"

#include <set>

#include "pcap/encap.hpp"
#include "protocols/au.hpp"
#include "protocols/awdl.hpp"
#include "protocols/dhcp.hpp"
#include "protocols/dns.hpp"
#include "protocols/nbns.hpp"
#include "protocols/ntp.hpp"
#include "protocols/smb.hpp"
#include "util/check.hpp"

namespace ftc::protocols {

namespace {

/// Adapts a concrete generator class to message_source.
template <typename Generator>
class source_adapter final : public message_source {
public:
    explicit source_adapter(std::uint64_t seed) : gen_(seed) {}
    annotated_message next() override { return gen_.next(); }

private:
    Generator gen_;
};

}  // namespace

std::vector<std::string_view> protocol_names() {
    return {"DHCP", "DNS", "NBNS", "NTP", "SMB", "AWDL", "AU"};
}

std::size_t paper_trace_size(std::string_view protocol) {
    if (protocol == "AWDL") {
        return 768;
    }
    if (protocol == "AU") {
        return 123;
    }
    return 1000;
}

std::unique_ptr<message_source> make_source(std::string_view protocol, std::uint64_t seed) {
    if (protocol == "NTP") {
        return std::make_unique<source_adapter<ntp_generator>>(seed);
    }
    if (protocol == "DNS") {
        return std::make_unique<source_adapter<dns_generator>>(seed);
    }
    if (protocol == "NBNS") {
        return std::make_unique<source_adapter<nbns_generator>>(seed);
    }
    if (protocol == "DHCP") {
        return std::make_unique<source_adapter<dhcp_generator>>(seed);
    }
    if (protocol == "SMB") {
        return std::make_unique<source_adapter<smb_generator>>(seed);
    }
    if (protocol == "AWDL") {
        return std::make_unique<source_adapter<awdl_generator>>(seed);
    }
    if (protocol == "AU") {
        return std::make_unique<source_adapter<au_generator>>(seed);
    }
    throw precondition_error(message("unknown protocol: ", std::string{protocol}));
}

pcap::linktype protocol_linktype(std::string_view protocol) {
    if (protocol == "AWDL") {
        return pcap::linktype::ieee802_11;
    }
    if (protocol == "AU") {
        return pcap::linktype::user0;
    }
    return pcap::linktype::ethernet;
}

std::vector<field_annotation> dissect(std::string_view protocol, byte_view payload) {
    if (protocol == "NTP") {
        return dissect_ntp(payload);
    }
    if (protocol == "DNS") {
        return dissect_dns(payload);
    }
    if (protocol == "NBNS") {
        return dissect_nbns(payload);
    }
    if (protocol == "DHCP") {
        return dissect_dhcp(payload);
    }
    if (protocol == "SMB") {
        return dissect_smb(payload);
    }
    if (protocol == "AWDL") {
        return dissect_awdl(payload);
    }
    if (protocol == "AU") {
        return dissect_au(payload);
    }
    throw precondition_error(message("unknown protocol: ", std::string{protocol}));
}

trace generate_trace(std::string_view protocol, std::size_t unique_messages,
                     std::uint64_t seed) {
    const auto source = make_source(protocol, seed);
    trace out;
    out.protocol = std::string{protocol};
    std::set<byte_vector> seen;
    // Generous retry bound: duplicates happen (by design the value pools are
    // skewed) but should not dominate.
    const std::size_t max_attempts = unique_messages * 64 + 1024;
    std::size_t attempts = 0;
    while (out.messages.size() < unique_messages) {
        if (++attempts > max_attempts) {
            throw error(message("generate_trace(", out.protocol, "): only ",
                                out.messages.size(), " unique messages after ", attempts,
                                " attempts"));
        }
        annotated_message msg = source->next();
        if (seen.insert(msg.bytes).second) {
            out.messages.push_back(std::move(msg));
        }
    }
    return out;
}

pcap::capture trace_to_capture(const trace& input) {
    const pcap::linktype link = protocol_linktype(input.protocol);
    pcap::capture_builder builder(link);
    for (const annotated_message& msg : input.messages) {
        if (link == pcap::linktype::ethernet) {
            builder.add_message(msg.flow, msg.bytes);
        } else {
            builder.add_raw(msg.bytes);
        }
    }
    return std::move(builder).finish();
}

std::vector<byte_vector> capture_payloads(const pcap::capture& cap) {
    diag::error_sink discard;
    return capture_payloads(cap, discard);
}

std::vector<byte_vector> capture_payloads(const pcap::capture& cap, diag::error_sink& sink) {
    std::vector<byte_vector> out;
    for (pcap::datagram& d : pcap::extract_datagrams(cap, {}, sink)) {
        out.push_back(std::move(d.payload));
    }
    return out;
}

trace trace_from_payloads(std::string_view protocol, const std::vector<byte_vector>& payloads) {
    trace out;
    out.protocol = std::string{protocol};
    for (const byte_vector& payload : payloads) {
        annotated_message msg;
        // SMB payloads extracted from TCP still carry the 4-byte NBSS
        // prefix; strip it before dissection.
        if (protocol == "SMB" && payload.size() > 4 && payload[0] == 0x00) {
            msg.bytes.assign(payload.begin() + 4, payload.end());
        } else {
            msg.bytes = payload;
        }
        msg.fields = dissect(protocol, msg.bytes);
        validate_annotations(msg);
        out.messages.push_back(std::move(msg));
    }
    return out;
}

}  // namespace ftc::protocols
