#include "serve/http.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "util/net.hpp"
#include "util/parse.hpp"

namespace ftc::serve {

namespace {

using util::net::io_result;

std::string lowercase(std::string_view text) {
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return out;
}

std::string_view trim(std::string_view text) {
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
        text.remove_prefix(1);
    }
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
        text.remove_suffix(1);
    }
    return text;
}

/// Strictly parse a Content-Length value (digits only, no sign, fits u64).
bool parse_content_length(std::string_view text, std::uint64_t& out) {
    if (text.empty() || text.size() > 19) {
        return false;
    }
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') {
            return false;
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

/// Parse "METHOD SP TARGET SP HTTP/x.y" + header lines out of \p head.
bool parse_head(std::string_view head, http_request& out) {
    const std::size_t line_end = head.find("\r\n");
    if (line_end == std::string_view::npos) {
        return false;
    }
    const std::string_view request_line = head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos
                                ? std::string_view::npos
                                : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos || sp1 == 0 ||
        sp2 == sp1 + 1) {
        return false;
    }
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version.rfind("HTTP/", 0) != 0) {
        return false;
    }
    out.method = std::string(request_line.substr(0, sp1));
    out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    out.version = std::string(version);

    std::size_t pos = line_end + 2;
    while (pos < head.size()) {
        const std::size_t next = head.find("\r\n", pos);
        if (next == std::string_view::npos) {
            return false;
        }
        if (next == pos) {
            break;  // blank line: end of headers
        }
        const std::string_view line = head.substr(pos, next - pos);
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            return false;
        }
        out.headers.emplace_back(lowercase(trim(line.substr(0, colon))),
                                 std::string(trim(line.substr(colon + 1))));
        pos = next + 2;
    }
    return true;
}

read_status map_failure(const io_result& r) {
    switch (r.st) {
        case io_result::status::eof:
            return read_status::eof;
        case io_result::status::timeout:
            return read_status::timeout;
        default:
            return read_status::reset;
    }
}

}  // namespace

read_status read_request(int fd, const http_limits& limits, http_request& out) {
    out = http_request{};
    // The whole head shares one deadline: a peer trickling one byte per
    // poll period (slow-loris) runs out of patience here, not per-read.
    const auto head_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(limits.io_deadline_ms);
    std::string buf;
    std::size_t head_end = std::string::npos;
    while (head_end == std::string::npos) {
        if (buf.size() >= limits.max_head_bytes) {
            return read_status::too_large;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            head_deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
            return read_status::timeout;
        }
        char chunk[2048];
        const std::size_t cap =
            std::min(sizeof chunk, limits.max_head_bytes - buf.size());
        const io_result r =
            util::net::read_some(fd, chunk, cap, static_cast<int>(left.count()));
        if (!r.ok()) {
            return map_failure(r);
        }
        buf.append(chunk, r.n);
        head_end = buf.find("\r\n\r\n");
    }

    if (!parse_head(std::string_view{buf}.substr(0, head_end + 2), out)) {
        return read_status::bad_request;
    }

    std::uint64_t content_length = 0;
    if (const std::string* value = find_header(out, "content-length")) {
        if (!parse_content_length(*value, content_length)) {
            return read_status::bad_request;
        }
    }
    if (content_length > limits.max_body_bytes) {
        return read_status::too_large;
    }

    // Whatever followed the blank line is body; read the rest bounded.
    const std::size_t body_start = head_end + 4;
    const std::size_t already = buf.size() - body_start;
    if (already > content_length) {
        return read_status::bad_request;  // more body than announced
    }
    // A client waiting on `Expect: 100-continue` would otherwise stall for
    // its own timeout before sending the body. HTTP/1.0 has no interim
    // responses, so its peers never get one (RFC 9110 §10.1.1).
    const std::string* expect = find_header(out, "expect");
    if (already == 0 && content_length > 0 && out.version == "HTTP/1.1" &&
        expect != nullptr && lowercase(*expect) == "100-continue") {
        constexpr std::string_view interim = "HTTP/1.1 100 Continue\r\n\r\n";
        const io_result r =
            util::net::write_all(fd, interim.data(), interim.size(), limits.io_deadline_ms);
        if (!r.ok()) {
            return map_failure(r);
        }
    }
    out.body.assign(buf.begin() + static_cast<std::ptrdiff_t>(body_start), buf.end());
    out.body.reserve(static_cast<std::size_t>(content_length));
    while (out.body.size() < content_length) {
        std::uint8_t chunk[16384];
        const std::size_t cap = std::min(
            sizeof chunk, static_cast<std::size_t>(content_length) - out.body.size());
        const io_result r = util::net::read_some(fd, chunk, cap, limits.io_deadline_ms);
        if (!r.ok()) {
            return map_failure(r);
        }
        out.body.insert(out.body.end(), chunk, chunk + r.n);
    }
    return read_status::ok;
}

const std::string* find_header(const http_request& request, std::string_view name) {
    for (const auto& [key, value] : request.headers) {
        if (key == name) {
            return &value;
        }
    }
    return nullptr;
}

std::string_view status_reason(int code) {
    switch (code) {
        case 200:
            return "OK";
        case 202:
            return "Accepted";
        case 400:
            return "Bad Request";
        case 404:
            return "Not Found";
        case 405:
            return "Method Not Allowed";
        case 409:
            return "Conflict";
        case 413:
            return "Payload Too Large";
        case 503:
            return "Service Unavailable";
        default:
            return "Error";
    }
}

bool write_response(int fd, int status, std::string_view content_type,
                    std::string_view body,
                    const std::vector<std::pair<std::string, std::string>>& extra_headers,
                    int io_deadline_ms) {
    std::string response = "HTTP/1.0 " + std::to_string(status) + " " +
                           std::string(status_reason(status)) + "\r\n";
    response += "Content-Type: " + std::string(content_type) + "\r\n";
    response += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    for (const auto& [key, value] : extra_headers) {
        response += key + ": " + value + "\r\n";
    }
    response += "Connection: close\r\n\r\n";
    response += body;
    return util::net::write_all(fd, response.data(), response.size(), io_deadline_ms).ok();
}

}  // namespace ftc::serve
