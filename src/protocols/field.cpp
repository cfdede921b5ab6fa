#include "protocols/field.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace ftc::protocols {

const char* to_string(field_type type) {
    switch (type) {
        case field_type::id: return "id";
        case field_type::flags: return "flags";
        case field_type::enumeration: return "enum";
        case field_type::unsigned_int: return "uint";
        case field_type::signed_int: return "int";
        case field_type::length: return "length";
        case field_type::checksum: return "checksum";
        case field_type::timestamp: return "timestamp";
        case field_type::ipv4_addr: return "ipv4_addr";
        case field_type::mac_addr: return "mac_addr";
        case field_type::chars: return "chars";
        case field_type::bytes: return "bytes";
        case field_type::padding: return "padding";
        case field_type::nonce: return "nonce";
        case field_type::signature: return "signature";
        case field_type::measurement: return "measurement";
    }
    return "unknown";
}

std::size_t trace::total_bytes() const {
    std::size_t n = 0;
    for (const annotated_message& m : messages) {
        n += m.bytes.size();
    }
    return n;
}

void validate_annotations(const annotated_message& msg) {
    std::size_t cursor = 0;
    for (const field_annotation& f : msg.fields) {
        ensures(f.length > 0, "field '", f.name, "' has zero length");
        ensures(f.offset == cursor, "field '", f.name, "' at offset ", f.offset, ", expected ",
                cursor, " (annotations must be contiguous)");
        cursor = f.offset + f.length;
    }
    ensures(cursor == msg.bytes.size(), "annotations cover ", cursor, " of ", msg.bytes.size(),
            " bytes");
}

trace deduplicate(const trace& input) {
    trace out;
    out.protocol = input.protocol;
    std::set<byte_vector, byte_less> seen;
    for (const annotated_message& m : input.messages) {
        if (seen.insert(m.bytes).second) {
            out.messages.push_back(m);
        }
    }
    return out;
}

trace truncate(const trace& input, std::size_t max_messages) {
    trace out;
    out.protocol = input.protocol;
    const std::size_t n = std::min(max_messages, input.messages.size());
    out.messages.assign(input.messages.begin(),
                        input.messages.begin() + static_cast<std::ptrdiff_t>(n));
    return out;
}

}  // namespace ftc::protocols
