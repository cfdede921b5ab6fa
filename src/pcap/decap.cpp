#include "pcap/decap.hpp"

#include <cstdio>

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"

namespace ftc::pcap {

std::string ipv4_address::dotted() const {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value >> 24) & 0xff, (value >> 16) & 0xff,
                  (value >> 8) & 0xff, value & 0xff);
    return buf;
}

std::uint16_t internet_checksum(byte_view data) {
    std::uint32_t sum = 0;
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) {
        sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
    }
    if (i < data.size()) {
        sum += static_cast<std::uint32_t>(data[i] << 8);
    }
    while (sum >> 16) {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

ethernet_header parse_ethernet(byte_view frame) {
    if (frame.size() < ethernet_header::size) {
        throw parse_error(message("ethernet: frame too short (", frame.size(), " bytes)"));
    }
    ethernet_header h;
    for (std::size_t i = 0; i < 6; ++i) {
        h.dst[i] = frame[i];
        h.src[i] = frame[6 + i];
    }
    h.ethertype = get_u16_be(frame, 12);
    return h;
}

ipv4_header parse_ipv4(byte_view packet_bytes, bool verify_checksum) {
    if (packet_bytes.size() < 20) {
        throw parse_error(message("ipv4: header too short (", packet_bytes.size(), " bytes)"));
    }
    const std::uint8_t version_ihl = packet_bytes[0];
    if ((version_ihl >> 4) != 4) {
        throw parse_error(message("ipv4: not version 4: ", version_ihl >> 4));
    }
    const std::uint8_t ihl = static_cast<std::uint8_t>(version_ihl & 0x0f);
    if (ihl < 5) {
        throw parse_error(message("ipv4: IHL below minimum: ", static_cast<int>(ihl)));
    }
    ipv4_header h;
    h.header_length = static_cast<std::uint8_t>(ihl * 4);
    if (packet_bytes.size() < h.header_length) {
        throw parse_error("ipv4: truncated options");
    }
    h.total_length = get_u16_be(packet_bytes, 2);
    h.identification = get_u16_be(packet_bytes, 4);
    h.ttl = packet_bytes[8];
    h.protocol = packet_bytes[9];
    h.src = ipv4_address{get_u32_be(packet_bytes, 12)};
    h.dst = ipv4_address{get_u32_be(packet_bytes, 16)};
    if (verify_checksum) {
        const std::uint16_t sum = internet_checksum(packet_bytes.subspan(0, h.header_length));
        if (sum != 0) {
            throw parse_error(message("ipv4: header checksum mismatch (residual 0x", sum, ")"));
        }
    }
    if (h.total_length < h.header_length || h.total_length > packet_bytes.size()) {
        throw parse_error(message("ipv4: inconsistent total length ", h.total_length));
    }
    return h;
}

udp_header parse_udp(byte_view segment) {
    if (segment.size() < udp_header::size) {
        throw parse_error("udp: header too short");
    }
    udp_header h;
    h.src_port = get_u16_be(segment, 0);
    h.dst_port = get_u16_be(segment, 2);
    h.length = get_u16_be(segment, 4);
    if (h.length < udp_header::size || h.length > segment.size()) {
        throw parse_error(message("udp: inconsistent length ", h.length));
    }
    return h;
}

tcp_header parse_tcp(byte_view segment) {
    if (segment.size() < 20) {
        throw parse_error("tcp: header too short");
    }
    tcp_header h;
    h.src_port = get_u16_be(segment, 0);
    h.dst_port = get_u16_be(segment, 2);
    h.seq = get_u32_be(segment, 4);
    h.ack = get_u32_be(segment, 8);
    const std::uint8_t offset_words = static_cast<std::uint8_t>(segment[12] >> 4);
    if (offset_words < 5) {
        throw parse_error(message("tcp: data offset below minimum: ", int{offset_words}));
    }
    h.data_offset = static_cast<std::uint8_t>(offset_words * 4);
    if (segment.size() < h.data_offset) {
        throw parse_error("tcp: truncated options");
    }
    h.flags = segment[13];
    return h;
}

std::optional<std::size_t> nbss_framer(byte_view stream) {
    constexpr std::size_t kHeader = 4;
    if (stream.size() < kHeader) {
        return std::nullopt;
    }
    // RFC 1002 session message: type byte, then a 24-bit length minus flags;
    // for the session message type (0x00) the low 17 bits carry the length.
    const std::size_t body = (static_cast<std::size_t>(stream[1] & 0x01) << 16) |
                             (static_cast<std::size_t>(stream[2]) << 8) | stream[3];
    const std::size_t total = kHeader + body;
    if (stream.size() < total) {
        return std::nullopt;
    }
    return total;
}

std::vector<byte_vector> tcp_reassembler::feed(const flow_key& flow, std::uint32_t seq,
                                               byte_view payload, const stream_framer& framer) {
    std::vector<byte_vector> completed;
    stream_state& state = streams_[flow];
    if (!state.initialized) {
        state.initialized = true;
        state.buffer_seq = seq;
        state.next_seq = seq;
    }

    auto append_in_order = [&state](byte_view bytes) {
        state.buffer.insert(state.buffer.end(), bytes.begin(), bytes.end());
        state.next_seq += static_cast<std::uint32_t>(bytes.size());
    };

    if (seq == state.next_seq) {
        append_in_order(payload);
        // Drain any buffered continuation segments.
        auto it = state.out_of_order.find(state.next_seq);
        while (it != state.out_of_order.end()) {
            append_in_order(it->second);
            state.out_of_order.erase(it);
            it = state.out_of_order.find(state.next_seq);
        }
    } else if (static_cast<std::int32_t>(seq - state.next_seq) > 0) {
        state.out_of_order.emplace(seq, byte_vector(payload.begin(), payload.end()));
    } else if (!state.consumed_any &&
               seq + static_cast<std::uint32_t>(payload.size()) == state.buffer_seq) {
        // The stream head was reordered: this segment directly precedes the
        // buffered data and nothing has been framed yet — prepend it.
        state.buffer.insert(state.buffer.begin(), payload.begin(), payload.end());
        state.buffer_seq = seq;
    }
    // else: retransmission of already-delivered data; drop.

    // Frame complete messages off the stream head.
    while (true) {
        const std::optional<std::size_t> frame_len = framer(state.buffer);
        if (!frame_len || *frame_len == 0 || *frame_len > state.buffer.size()) {
            break;
        }
        completed.emplace_back(state.buffer.begin(),
                               state.buffer.begin() + static_cast<std::ptrdiff_t>(*frame_len));
        state.buffer.erase(state.buffer.begin(),
                           state.buffer.begin() + static_cast<std::ptrdiff_t>(*frame_len));
        state.buffer_seq += static_cast<std::uint32_t>(*frame_len);
        state.consumed_any = true;
    }
    return completed;
}

std::vector<datagram> extract_datagrams(const capture& cap, const extract_options& options,
                                        diag::error_sink& sink) {
    obs::span sp("pcap.decap");
    sp.count("packets", cap.packets.size());
    obs::progress_stage("pcap.decap", cap.packets.size());
    std::vector<datagram> out;
    tcp_reassembler reassembler;

    // Record a quarantined frame (historically a silent skip).
    auto quarantine = [&sink](std::size_t index, std::string detail) {
        sink.report({diag::category::decap, diag::severity::error, index, 0,
                     std::move(detail)});
    };

    for (std::size_t index = 0; index < cap.packets.size(); ++index) {
        obs::progress_add(1);
        const packet& p = cap.packets[index];
        const byte_view frame{p.data};
        if (cap.link == linktype::user0 || cap.link == linktype::ieee802_11) {
            // Non-IP capture: the whole record is one application message.
            datagram d;
            d.ts_sec = p.ts_sec;
            d.ts_usec = p.ts_usec;
            d.payload.assign(frame.begin(), frame.end());
            out.push_back(std::move(d));
            continue;
        }

        byte_view ip_bytes;
        if (cap.link == linktype::ethernet) {
            ethernet_header eth;
            try {
                eth = parse_ethernet(frame);
            } catch (const parse_error& e) {
                quarantine(index, e.what());  // runt frame
                continue;
            }
            if (eth.ethertype != 0x0800) {
                sink.report({diag::category::decap, diag::severity::note, index, 0,
                             message("skipped non-IPv4 ethertype 0x", std::hex,
                                     eth.ethertype)});
                continue;
            }
            ip_bytes = frame.subspan(ethernet_header::size);
        } else {
            ip_bytes = frame;  // raw_ip
        }

        ipv4_header ip;
        try {
            ip = parse_ipv4(ip_bytes, options.verify_checksums);
        } catch (const parse_error& e) {
            quarantine(index, e.what());  // malformed or failed checksum
            continue;
        }
        const byte_view ip_payload =
            ip_bytes.subspan(ip.header_length, ip.total_length - ip.header_length);

        if (ip.protocol == static_cast<std::uint8_t>(transport::udp)) {
            udp_header udp;
            try {
                udp = parse_udp(ip_payload);
            } catch (const parse_error& e) {
                quarantine(index, e.what());
                continue;
            }
            datagram d;
            d.flow = {ip.src, ip.dst, udp.src_port, udp.dst_port, transport::udp};
            d.ts_sec = p.ts_sec;
            d.ts_usec = p.ts_usec;
            const byte_view body = ip_payload.subspan(udp_header::size, udp.length - udp_header::size);
            d.payload.assign(body.begin(), body.end());
            out.push_back(std::move(d));
        } else if (ip.protocol == static_cast<std::uint8_t>(transport::tcp)) {
            tcp_header tcp;
            try {
                tcp = parse_tcp(ip_payload);
            } catch (const parse_error& e) {
                quarantine(index, e.what());
                continue;
            }
            const byte_view body = ip_payload.subspan(tcp.data_offset);
            if (body.empty()) {
                continue;  // pure ACK / handshake
            }
            const flow_key flow{ip.src, ip.dst, tcp.src_port, tcp.dst_port, transport::tcp};
            for (byte_vector& msg : reassembler.feed(flow, tcp.seq, body, options.tcp_framer)) {
                datagram d;
                d.flow = flow;
                d.ts_sec = p.ts_sec;
                d.ts_usec = p.ts_usec;
                d.payload = std::move(msg);
                out.push_back(std::move(d));
            }
        } else {
            sink.report({diag::category::decap, diag::severity::note, index, 0,
                         message("skipped unsupported IP protocol ",
                                 static_cast<int>(ip.protocol))});
        }
    }
    sp.count("datagrams", out.size());
    obs::counter_add("pcap.datagrams_total", static_cast<double>(out.size()));
    return out;
}

std::vector<datagram> extract_datagrams(const capture& cap, const extract_options& options) {
    diag::error_sink discard;
    return extract_datagrams(cap, options, discard);
}

}  // namespace ftc::pcap
