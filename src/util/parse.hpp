/// \file parse.hpp
/// Strict numeric parsing for CLI flags and environment knobs.
///
/// atoi/atoll/atof silently accept trailing garbage ("100x" -> 100), turn
/// overflow into implementation-defined values, and fold negatives into
/// huge size_t counts when the caller casts — all three have bitten real
/// tools. These helpers accept exactly one well-formed number spanning the
/// whole string and throw ftc::error with a diagnostic naming the flag
/// otherwise, so `--max-segments -1` or `--budget 10q` fail loudly
/// instead of silently bounding nothing.
#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "util/check.hpp"
#include "util/error.hpp"

namespace ftc::util {

/// Parse a non-negative decimal integer occupying all of \p text.
/// Rejects empty input, signs, trailing garbage and overflow.
inline std::uint64_t parse_u64(std::string_view text, std::string_view what) {
    if (text.empty()) {
        throw error(message("invalid value for ", what, ": empty"));
    }
    if (text.front() == '-' || text.front() == '+') {
        throw error(message("invalid value for ", what, ": '", std::string{text},
                            "' (must be a plain non-negative integer)"));
    }
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 10);
    if (ec == std::errc::result_out_of_range) {
        throw error(message("invalid value for ", what, ": '", std::string{text},
                            "' overflows a 64-bit count"));
    }
    if (ec != std::errc{} || end != text.data() + text.size()) {
        throw error(message("invalid value for ", what, ": '", std::string{text},
                            "' is not a whole number"));
    }
    return value;
}

/// Parse a finite, non-negative decimal number occupying all of \p text.
inline double parse_double(std::string_view text, std::string_view what) {
    if (text.empty()) {
        throw error(message("invalid value for ", what, ": empty"));
    }
    const std::string owned{text};  // strtod needs NUL termination
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size() || owned.empty()) {
        throw error(message("invalid value for ", what, ": '", owned, "' is not a number"));
    }
    if (errno == ERANGE || !(value <= std::numeric_limits<double>::max())) {
        throw error(message("invalid value for ", what, ": '", owned, "' is out of range"));
    }
    if (value < 0.0) {
        throw error(message("invalid value for ", what, ": '", owned,
                            "' (must be non-negative)"));
    }
    return value;
}

/// Parse a byte size: a non-negative integer with an optional binary-scale
/// suffix K/M/G/T (case-insensitive, optionally followed by "iB" or "B",
/// e.g. "64M", "2GiB", "512kb"). Rejects trailing garbage and values whose
/// scaled result overflows 64 bits.
inline std::uint64_t parse_size_bytes(std::string_view text, std::string_view what) {
    std::string_view digits = text;
    std::uint64_t shift = 0;
    // Peel an optional suffix off the end: [KMGT](iB|B)?
    std::string_view tail = text;
    while (!tail.empty() && (std::isalpha(static_cast<unsigned char>(tail.back())) != 0)) {
        tail.remove_suffix(1);
    }
    std::string_view suffix = text.substr(tail.size());
    digits = tail;
    if (!suffix.empty()) {
        std::string lower;
        for (char c : suffix) {
            lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
        }
        std::string_view unit = lower;
        if (unit.size() > 1 && (unit.substr(1) == "ib" || unit.substr(1) == "b")) {
            unit = unit.substr(0, 1);
        }
        if (unit == "k") {
            shift = 10;
        } else if (unit == "m") {
            shift = 20;
        } else if (unit == "g") {
            shift = 30;
        } else if (unit == "t") {
            shift = 40;
        } else if (unit == "b" && suffix.size() == 1) {
            shift = 0;
        } else {
            throw error(message("invalid value for ", what, ": '", std::string{text},
                                "' (unknown size suffix '", std::string{suffix},
                                "'; use K, M, G or T)"));
        }
    }
    const std::uint64_t base = parse_u64(digits, what);
    if (shift > 0 && base > (std::numeric_limits<std::uint64_t>::max() >> shift)) {
        throw error(message("invalid value for ", what, ": '", std::string{text},
                            "' overflows a 64-bit byte count"));
    }
    return base << shift;
}

}  // namespace ftc::util
