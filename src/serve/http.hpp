/// \file http.hpp
/// Bounded HTTP/1.0 request reading and response writing for the serve
/// daemon (ftc::serve).
///
/// This extends the single-purpose scrape responder (obs/httpd) into a
/// small request surface the daemon can route on: method, target, headers
/// and a Content-Length-framed body. The robustness contract does the
/// heavy lifting:
///
///  - every read and write goes through util::net, so EINTR and partial
///    transfers are retried and every wait is deadline-bounded;
///  - the request head and body are size-capped (http_limits) — an
///    oversized or malformed request is a typed outcome (bad_request /
///    too_large), never an allocation blowup;
///  - a peer that trickles bytes slower than the deadline (slow-loris) is
///    a `timeout` outcome and the connection is dropped;
///  - an HTTP/1.1 peer that sent `Expect: 100-continue` and is waiting
///    with its body (curl does so above 1 KB) gets the interim
///    `100 Continue` once the announced length passed its cap;
///  - responses are HTTP/1.0 `Connection: close` with an exact
///    Content-Length, written with the same retry loops — a response is
///    complete or the connection is visibly dead, never silently truncated.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/byteio.hpp"

namespace ftc::serve {

/// Per-connection safety bounds.
struct http_limits {
    std::size_t max_head_bytes = 8192;          ///< request line + headers
    std::size_t max_body_bytes = 64 * 1024 * 1024;  ///< POST body cap
    int io_deadline_ms = 5000;  ///< total patience for head, and per body read
};

/// One parsed request. Header names are lowercased; values are trimmed.
struct http_request {
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< origin-form, e.g. "/jobs/3/report"
    std::string version;  ///< "HTTP/1.0", "HTTP/1.1", ...
    std::vector<std::pair<std::string, std::string>> headers;
    byte_vector body;
};

/// Outcome of read_request; everything except `ok` ends the connection
/// (after an error response where one is still possible).
enum class read_status {
    ok,
    eof,          ///< peer closed before a full request arrived
    bad_request,  ///< malformed request line / headers / Content-Length
    too_large,    ///< head or body exceeds its cap
    timeout,      ///< deadline expired (slow-loris or stalled transfer)
    reset,        ///< connection reset mid-request
};

/// Read and parse one request from \p fd under \p limits.
read_status read_request(int fd, const http_limits& limits, http_request& out);

/// First header with lowercase name \p name, or nullptr.
const std::string* find_header(const http_request& request, std::string_view name);

/// Reason phrase for the status codes this server emits.
std::string_view status_reason(int code);

/// Write a complete HTTP/1.0 response (status line, Content-Type,
/// Content-Length, Connection: close, \p extra_headers, body). Returns
/// false when the peer vanished or the write deadline expired.
bool write_response(int fd, int status, std::string_view content_type,
                    std::string_view body,
                    const std::vector<std::pair<std::string, std::string>>& extra_headers,
                    int io_deadline_ms);

}  // namespace ftc::serve
