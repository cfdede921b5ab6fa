/// \file json.hpp
/// Minimal JSON parser: the read side of the JSON this project reads back
/// in process — the serve spool's job metadata, and in tests the ledger
/// and the telemetry NDJSON. Strict RFC 8259 subset — objects, arrays,
/// strings with escapes (incl. \uXXXX for BMP code points), numbers as
/// double, true/false/null — with one-line error messages carrying the
/// byte offset.
///
/// Numbers are stored as double. Every integer this project writes fits a
/// double exactly (counters, byte totals < 2^53); a document needing more
/// is out of scope.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace ftc::util {

/// One parsed JSON value (tree-owning).
class json_value {
public:
    enum class kind { null, boolean, number, string, array, object };

    json_value() = default;  ///< null

    kind type() const { return kind_; }
    bool is_null() const { return kind_ == kind::null; }
    bool is_bool() const { return kind_ == kind::boolean; }
    bool is_number() const { return kind_ == kind::number; }
    bool is_string() const { return kind_ == kind::string; }
    bool is_array() const { return kind_ == kind::array; }
    bool is_object() const { return kind_ == kind::object; }

    /// Typed accessors; throw ftc::error on a kind mismatch so a schema
    /// drift in a BENCH file fails with a message, not UB.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const std::vector<json_value>& as_array() const;
    const std::map<std::string, json_value>& as_object() const;

    /// Object member lookup; throws when not an object or key missing.
    const json_value& at(std::string_view key) const;

    /// Object member lookup returning nullptr when absent (or not an
    /// object) — the tolerant path for optional schema fields.
    const json_value* find(std::string_view key) const;

    /// Convenience: member \p key as number/string/bool, or \p fallback
    /// when absent. Throws on a present-but-wrong-kind member.
    double number_or(std::string_view key, double fallback) const;
    std::string string_or(std::string_view key, std::string fallback) const;
    bool bool_or(std::string_view key, bool fallback) const;

private:
    friend json_value parse_json(std::string_view);
    friend class json_parser;

    kind kind_ = kind::null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<json_value> array_;
    std::map<std::string, json_value> object_;
};

/// Parse one JSON document (the whole input must be consumed apart from
/// trailing whitespace). Throws ftc::error with a byte offset on malformed
/// input.
json_value parse_json(std::string_view text);

}  // namespace ftc::util
