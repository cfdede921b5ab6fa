/// \file check.hpp
/// Precondition / invariant helpers in the spirit of GSL Expects/Ensures.
///
/// These are always-on checks (not asserts): violating a documented
/// precondition of a public API throws ftc::precondition_error so that
/// misuse is caught early even in release builds (Core Guidelines P.7, I.5).
#pragma once

#include <sstream>
#include <string_view>

#include "util/error.hpp"

namespace ftc {

/// Throw ftc::precondition_error unless \p condition holds.
inline void expects(bool condition, std::string_view message) {
    if (!condition) {
        throw precondition_error(std::string{message});
    }
}

/// Throw ftc::error unless the postcondition/invariant \p condition holds.
inline void ensures(bool condition, std::string_view message) {
    if (!condition) {
        throw error("internal invariant violated: " + std::string{message});
    }
}

namespace detail {
inline void format_into(std::ostringstream&) {}

template <typename T, typename... Rest>
void format_into(std::ostringstream& os, const T& value, const Rest&... rest) {
    os << value;
    format_into(os, rest...);
}
}  // namespace detail

/// Build an error message from streamable parts, e.g.
/// `ftc::message("offset ", off, " out of range [0,", size, ")")`.
template <typename... Parts>
std::string message(const Parts&... parts) {
    std::ostringstream os;
    detail::format_into(os, parts...);
    return os.str();
}

/// ensures() with the message built from streamable parts only when
/// \p condition fails, so a passing check in a per-element loop costs one
/// compare: `ftc::ensures(off == cursor, "segment at ", off, ", expected ",
/// cursor)`.
template <typename First, typename Second, typename... Rest>
void ensures(bool condition, const First& first, const Second& second, const Rest&... rest) {
    if (!condition) {
        ensures(false, message(first, second, rest...));
    }
}

}  // namespace ftc
