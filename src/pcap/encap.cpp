#include "pcap/encap.hpp"

#include "util/check.hpp"

namespace ftc::pcap {

namespace {

void put_mac(byte_vector& out, const mac_address& mac) {
    out.insert(out.end(), mac.begin(), mac.end());
}

/// IPv4 header with checksum; returns the full packet bytes (header + payload).
byte_vector build_ipv4(std::uint8_t protocol, const flow_key& flow, byte_view l4_bytes,
                       std::uint16_t identification) {
    byte_vector ip;
    const std::size_t total_length = 20 + l4_bytes.size();
    expects(total_length <= 0xffff, "ipv4: payload too large");
    put_u8(ip, 0x45);  // version 4, IHL 5
    put_u8(ip, 0x00);  // DSCP/ECN
    put_u16_be(ip, static_cast<std::uint16_t>(total_length));
    put_u16_be(ip, identification);
    put_u16_be(ip, 0x4000);  // flags: DF
    put_u8(ip, 64);          // TTL
    put_u8(ip, protocol);
    put_u16_be(ip, 0);  // checksum placeholder
    put_u32_be(ip, flow.src_ip.value);
    put_u32_be(ip, flow.dst_ip.value);
    const std::uint16_t sum = internet_checksum(ip);
    ip[10] = static_cast<std::uint8_t>(sum >> 8);
    ip[11] = static_cast<std::uint8_t>(sum & 0xff);
    put_bytes(ip, l4_bytes);
    return ip;
}

byte_vector build_ethernet(const mac_address& src_mac, const mac_address& dst_mac,
                           byte_view ip_bytes) {
    byte_vector frame;
    frame.reserve(ethernet_header::size + ip_bytes.size());
    put_mac(frame, dst_mac);
    put_mac(frame, src_mac);
    put_u16_be(frame, 0x0800);
    put_bytes(frame, ip_bytes);
    return frame;
}

}  // namespace

byte_vector build_udp_frame(const mac_address& src_mac, const mac_address& dst_mac,
                            const flow_key& flow, byte_view payload,
                            std::uint16_t ip_identification) {
    byte_vector udp;
    const std::size_t udp_length = udp_header::size + payload.size();
    expects(udp_length <= 0xffff, "udp: payload too large");
    put_u16_be(udp, flow.src_port);
    put_u16_be(udp, flow.dst_port);
    put_u16_be(udp, static_cast<std::uint16_t>(udp_length));
    put_u16_be(udp, 0);  // UDP checksum optional over IPv4; 0 = unused
    put_bytes(udp, payload);
    const byte_vector ip = build_ipv4(static_cast<std::uint8_t>(transport::udp), flow, udp,
                                      ip_identification);
    return build_ethernet(src_mac, dst_mac, ip);
}

byte_vector build_tcp_frame(const mac_address& src_mac, const mac_address& dst_mac,
                            const flow_key& flow, std::uint32_t seq, byte_view payload,
                            std::uint16_t ip_identification) {
    byte_vector tcp;
    put_u16_be(tcp, flow.src_port);
    put_u16_be(tcp, flow.dst_port);
    put_u32_be(tcp, seq);
    put_u32_be(tcp, 0);     // ack (synthetic stream; receiver side not modeled)
    put_u8(tcp, 5 << 4);    // data offset 5 words, no options
    put_u8(tcp, 0x18);      // PSH | ACK
    put_u16_be(tcp, 0xffff);  // window
    put_u16_be(tcp, 0);       // checksum (not verified by decap path)
    put_u16_be(tcp, 0);       // urgent pointer
    put_bytes(tcp, payload);
    const byte_vector ip = build_ipv4(static_cast<std::uint8_t>(transport::tcp), flow, tcp,
                                      ip_identification);
    return build_ethernet(src_mac, dst_mac, ip);
}

byte_vector wrap_nbss(byte_view smb_message) {
    expects(smb_message.size() < (1u << 17),
            "nbss: message exceeds session service length field");
    byte_vector out;
    out.reserve(4 + smb_message.size());
    put_u8(out, 0x00);  // session message
    put_u8(out, static_cast<std::uint8_t>((smb_message.size() >> 16) & 0x01));
    put_u16_be(out, static_cast<std::uint16_t>(smb_message.size() & 0xffff));
    put_bytes(out, smb_message);
    return out;
}

capture_builder::capture_builder(linktype link) { cap_.link = link; }

void capture_builder::advance_clock() {
    ts_usec_ += 1000;
    if (ts_usec_ >= 1000000) {
        ts_usec_ -= 1000000;
        ++ts_sec_;
    }
}

void capture_builder::push_packet(byte_vector frame) {
    packet p;
    p.ts_sec = ts_sec_;
    p.ts_usec = ts_usec_;
    p.data = std::move(frame);
    cap_.packets.push_back(std::move(p));
    advance_clock();
}

void capture_builder::add_message(const flow_key& flow, byte_view payload) {
    expects(cap_.link == linktype::ethernet, "capture_builder: IP messages need ethernet link");
    // Deterministic locally-administered MACs derived from the IPs.
    const auto mac_for = [](ipv4_address ip) {
        return mac_address{0x02, 0x00, static_cast<std::uint8_t>(ip.value >> 24),
                           static_cast<std::uint8_t>(ip.value >> 16),
                           static_cast<std::uint8_t>(ip.value >> 8),
                           static_cast<std::uint8_t>(ip.value)};
    };
    if (flow.proto == transport::udp) {
        push_packet(build_udp_frame(mac_for(flow.src_ip), mac_for(flow.dst_ip), flow, payload,
                                    next_ip_id_++));
    } else {
        const byte_vector framed = wrap_nbss(payload);
        std::uint32_t& seq = tcp_seq_[flow];
        if (seq == 0) {
            seq = 0x10000;  // deterministic initial sequence number
        }
        push_packet(build_tcp_frame(mac_for(flow.src_ip), mac_for(flow.dst_ip), flow, seq, framed,
                                    next_ip_id_++));
        seq += static_cast<std::uint32_t>(framed.size());
    }
}

void capture_builder::add_raw(byte_view payload) {
    expects(cap_.link == linktype::user0 || cap_.link == linktype::ieee802_11,
            "capture_builder: raw messages need a non-IP link type");
    push_packet(byte_vector(payload.begin(), payload.end()));
}

capture capture_builder::finish() && { return std::move(cap_); }

}  // namespace ftc::pcap
