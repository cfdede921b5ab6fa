/// \file byteio.hpp
/// Endian-explicit serialization helpers for wire formats.
///
/// Network protocol fields are big-endian unless stated otherwise; the pcap
/// file format is host-endian with a magic number announcing byte order.
/// These helpers make every read/write site state its endianness explicitly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace ftc {

using byte_vector = std::vector<std::uint8_t>;
using byte_view = std::span<const std::uint8_t>;

/// byte_vector's own lexicographic order, for ordered containers keyed by
/// bytes: GCC 12's -Wstringop-overread misreads the inlined three-way
/// compare that byte_vector's operator< goes through in C++20.
struct byte_less {
    bool operator()(const byte_vector& a, const byte_vector& b) const {
        return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    }
};

// ---------------------------------------------------------------------------
// Appending writers (grow a byte_vector)
// ---------------------------------------------------------------------------

inline void put_u8(byte_vector& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16_be(byte_vector& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_u16_le(byte_vector& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32_be(byte_vector& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_u32_le(byte_vector& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64_be(byte_vector& out, std::uint64_t v) {
    put_u32_be(out, static_cast<std::uint32_t>(v >> 32));
    put_u32_be(out, static_cast<std::uint32_t>(v));
}

inline void put_u64_le(byte_vector& out, std::uint64_t v) {
    put_u32_le(out, static_cast<std::uint32_t>(v));
    put_u32_le(out, static_cast<std::uint32_t>(v >> 32));
}

inline void put_bytes(byte_vector& out, byte_view data) {
    out.insert(out.end(), data.begin(), data.end());
}

inline void put_chars(byte_vector& out, std::string_view text) {
    out.insert(out.end(), text.begin(), text.end());
}

/// Append \p count copies of \p value (zero padding and the like).
inline void put_fill(byte_vector& out, std::size_t count, std::uint8_t value = 0) {
    out.insert(out.end(), count, value);
}

// ---------------------------------------------------------------------------
// Bounds-checked readers
// ---------------------------------------------------------------------------

inline std::uint8_t get_u8(byte_view data, std::size_t offset) {
    if (offset + 1 > data.size()) {
        throw parse_error(message("get_u8: offset ", offset, " beyond size ", data.size()));
    }
    return data[offset];
}

inline std::uint16_t get_u16_be(byte_view data, std::size_t offset) {
    if (offset + 2 > data.size()) {
        throw parse_error(message("get_u16_be: offset ", offset, " beyond size ", data.size()));
    }
    return static_cast<std::uint16_t>((data[offset] << 8) | data[offset + 1]);
}

inline std::uint16_t get_u16_le(byte_view data, std::size_t offset) {
    if (offset + 2 > data.size()) {
        throw parse_error(message("get_u16_le: offset ", offset, " beyond size ", data.size()));
    }
    return static_cast<std::uint16_t>(data[offset] | (data[offset + 1] << 8));
}

inline std::uint32_t get_u32_be(byte_view data, std::size_t offset) {
    if (offset + 4 > data.size()) {
        throw parse_error(message("get_u32_be: offset ", offset, " beyond size ", data.size()));
    }
    return (static_cast<std::uint32_t>(data[offset]) << 24) |
           (static_cast<std::uint32_t>(data[offset + 1]) << 16) |
           (static_cast<std::uint32_t>(data[offset + 2]) << 8) |
           static_cast<std::uint32_t>(data[offset + 3]);
}

inline std::uint32_t get_u32_le(byte_view data, std::size_t offset) {
    if (offset + 4 > data.size()) {
        throw parse_error(message("get_u32_le: offset ", offset, " beyond size ", data.size()));
    }
    return static_cast<std::uint32_t>(data[offset]) |
           (static_cast<std::uint32_t>(data[offset + 1]) << 8) |
           (static_cast<std::uint32_t>(data[offset + 2]) << 16) |
           (static_cast<std::uint32_t>(data[offset + 3]) << 24);
}

inline std::uint64_t get_u64_be(byte_view data, std::size_t offset) {
    return (static_cast<std::uint64_t>(get_u32_be(data, offset)) << 32) |
           get_u32_be(data, offset + 4);
}

inline std::uint64_t get_u64_le(byte_view data, std::size_t offset) {
    return static_cast<std::uint64_t>(get_u32_le(data, offset)) |
           (static_cast<std::uint64_t>(get_u32_le(data, offset + 4)) << 32);
}

/// A bounds-checked subspan; throws parse_error instead of UB on overrun.
inline byte_view get_slice(byte_view data, std::size_t offset, std::size_t length) {
    if (offset + length > data.size()) {
        throw parse_error(
            message("get_slice: [", offset, ", ", offset + length, ") beyond size ", data.size()));
    }
    return data.subspan(offset, length);
}

}  // namespace ftc
