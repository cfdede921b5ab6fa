#include "util/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/parse.hpp"

namespace ftc::util::http {

namespace {

using util::net::io_result;

/// How often an idle accept thread re-checks the stop flag.
constexpr int kStopTickMs = 200;

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

/// Strictly parse a Content-Length value (1-19 digits, no sign or space).
bool parse_content_length(std::string_view text, std::uint64_t& out) {
    const char* end = text.data() + text.size();
    return !text.empty() && text.size() <= 19 &&
           std::from_chars(text.data(), end, out).ptr == end;
}

/// Length of the request head in \p bytes, through its blank line, or 0
/// while no head ends within the cap.
std::size_t head_length(std::string_view bytes, const http_limits& limits) {
    const std::size_t at = bytes.find("\r\n\r\n");
    return at != std::string_view::npos && at + 4 <= limits.max_head_bytes ? at + 4 : 0;
}

/// Parse "METHOD SP TARGET SP HTTP/x.y" + header lines out of \p head and
/// check its Content-Length against the body cap.
read_status parse_head(std::string_view head, const http_limits& limits, http_request& out,
                       std::uint64_t& content_length) {
    const std::size_t line_end = head.find("\r\n");
    const std::string_view request_line = head.substr(0, line_end);
    const std::size_t sp1 = request_line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos
                                ? std::string_view::npos
                                : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos || sp1 == 0 ||
        sp2 == sp1 + 1) {
        return read_status::bad_request;
    }
    const std::string_view version = request_line.substr(sp2 + 1);
    if (version.rfind("HTTP/", 0) != 0) {
        return read_status::bad_request;
    }
    out.method = std::string(request_line.substr(0, sp1));
    out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    out.version = std::string(version);

    // The head ends in a blank line, so every header line ends in CRLF.
    for (std::size_t pos = line_end + 2;;) {
        const std::size_t next = head.find("\r\n", pos);
        if (next == pos) {
            break;  // the blank line
        }
        const std::string_view line = head.substr(pos, next - pos);
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            return read_status::bad_request;
        }
        out.headers.emplace_back(lowercase(trim(line.substr(0, colon))),
                                 std::string(trim(line.substr(colon + 1))));
        pos = next + 2;
    }

    content_length = 0;
    if (const std::string* value = find_header(out, "content-length")) {
        if (!parse_content_length(*value, content_length)) {
            return read_status::bad_request;
        }
    }
    return content_length > limits.max_body_bytes ? read_status::too_large : read_status::ok;
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

listen_address parse_listen_address(const std::string& spec, std::string_view flag) {
    const std::string name(flag);
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
        throw ftc::error(name + ": expected HOST:PORT, got '" + spec + "'");
    }
    listen_address out;
    out.host = spec.substr(0, colon);
    if (out.host == "localhost") {
        out.host = "127.0.0.1";
    }
    const std::uint64_t port = util::parse_u64(spec.c_str() + colon + 1, name + " port");
    if (port > 65535) {
        throw ftc::error(name + ": port " + std::to_string(port) + " out of range");
    }
    out.port = static_cast<std::uint16_t>(port);
    return out;
}

read_status parse_request(std::string_view bytes, const http_limits& limits,
                          http_request& out) {
    out = http_request{};
    const std::size_t head = head_length(bytes, limits);
    if (head == 0) {
        return bytes.size() >= limits.max_head_bytes ? read_status::too_large
                                                     : read_status::eof;
    }
    std::uint64_t content_length = 0;
    const read_status status = parse_head(bytes.substr(0, head), limits, out, content_length);
    if (status != read_status::ok) {
        return status;
    }
    const std::string_view body = bytes.substr(head);
    if (body.size() != content_length) {
        return body.size() > content_length ? read_status::bad_request : read_status::eof;
    }
    out.body.assign(body.begin(), body.end());
    return read_status::ok;
}

read_status read_request(int fd, const http_limits& limits, http_request& out) {
    out = http_request{};
    // The whole head shares one deadline: a peer trickling one byte per
    // poll period (slow-loris) runs out of patience here, not per-read.
    const auto head_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(limits.io_deadline_ms);
    std::string buf;
    std::size_t head = 0;
    while ((head = head_length(buf, limits)) == 0) {
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
    }

    std::uint64_t content_length = 0;
    const read_status status =
        parse_head(std::string_view{buf}.substr(0, head), limits, out, content_length);
    if (status != read_status::ok) {
        return status;
    }

    // Whatever followed the blank line is body; read the rest bounded.
    const std::size_t already = buf.size() - head;
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
    out.body.assign(buf.begin() + static_cast<std::ptrdiff_t>(head), buf.end());
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
    // A byte already waiting past the body is more body than announced too,
    // as parse_request finds it.
    return util::net::readable_now(fd) ? read_status::bad_request : read_status::ok;
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

http_response error_response(int status, std::string_view reason) {
    obs::json_writer w;
    w.begin_object();
    w.key("error");
    w.value(reason);
    w.end_object();
    return {status, "application/json", w.take(), {}};
}

server::server(const listen_address& address, std::size_t threads, const http_limits& limits,
               route routes, observer events, const char* what)
    : limits_(limits),
      route_(std::move(routes)),
      events_(events ? std::move(events) : [](server_event) {}) {
    listen_fd_ = util::net::listen_tcp(address.host, address.port, 16, &port_, what);
    for (std::size_t i = 0; i < std::max<std::size_t>(threads, 1); ++i) {
        threads_.emplace_back([this] { accept_loop(); });
    }
}

server::~server() { stop(); }

void server::stop() noexcept {
    if (stopping_.exchange(true, std::memory_order_relaxed)) {
        return;
    }
    for (std::thread& t : threads_) {
        t.join();
    }
    util::net::close_fd(listen_fd_);
}

void server::accept_loop() {
    // A bounded accept instead of a bare one: stop() only flips an atomic,
    // so each thread notices within one tick, and the listener closes
    // strictly after the join — no close/accept race to reason about.
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int client = util::net::accept_client(listen_fd_, kStopTickMs);
        if (client < 0) {
            continue;  // timeout or transient accept error: keep serving
        }
        // One connection is one bounded request/response exchange; any
        // exception is a that-connection problem, never the server's.
        try {
            serve_connection(client);
        } catch (...) {
            events_(server_event::error);
        }
        util::net::close_fd(client);
    }
}

void server::serve_connection(int fd) {
    http_request request;
    const read_status status = read_request(fd, limits_, request);
    requests_.fetch_add(1, std::memory_order_relaxed);
    events_(server_event::request);
    http_response response;
    switch (status) {
        case read_status::ok:
            response = route_(request);
            break;
        case read_status::bad_request:
            response = error_response(400, "malformed request");
            break;
        case read_status::too_large:
            response = error_response(413, "request exceeds configured limits");
            break;
        default:
            // eof / timeout / reset: the peer is gone or stalled; there is
            // nobody left worth writing an error to.
            events_(server_event::error);
            return;
    }
    if (response.status >= 400) {
        events_(server_event::error);
    }
    write_response(fd, response.status, response.content_type, response.body,
                   response.headers, limits_.io_deadline_ms);
}

http_response metrics_route(const obs::recorder* rec, const http_request& request) {
    if (request.method != "GET" || request.target != "/metrics") {
        return error_response(404, "no such endpoint");
    }
    if (rec == nullptr) {
        return error_response(404, "metrics recorder not enabled");
    }
    // One snapshot per scrape: the read path the exit-time exporter uses,
    // so a scrape never touches pipeline state.
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            obs::to_prometheus(rec->metrics().snapshot()), {}};
}

std::unique_ptr<server> serve_metrics(const obs::recorder& rec,
                                      const listen_address& address) {
    // Serve's head cap, no body, and the 2 s a scraper's head ever had.
    const http_limits limits{http_limits{}.max_head_bytes, 0, 2000};
    return std::make_unique<server>(
        address, 1, limits,
        [&rec](const http_request& request) { return metrics_route(&rec, request); },
        server::observer{}, "metrics-listen");
}

}  // namespace ftc::util::http
