/// \file http.hpp
/// The one bounded HTTP/1.0 stack behind every port ftclust listens on
/// (ftc::util::http): the routes of `ftclust serve` (serve/daemon) and the
/// `--metrics-listen` scrape endpoint, which is a one-route user.
///
/// The robustness contract does the heavy lifting:
///
///  - every read and write goes through util::net, so EINTR and partial
///    transfers are retried and every wait is deadline-bounded;
///  - the request head and body are size-capped (http_limits) — an
///    oversized or malformed request is a typed outcome (bad_request /
///    too_large), never an allocation blowup;
///  - a peer that trickles bytes slower than the deadline (slow-loris) is
///    a `timeout` outcome and the connection is dropped;
///  - parse_request applies the request grammar and framing rules to a
///    byte buffer, read_request applies the same ones to a socket, so both
///    give the same outcome on the same bytes (examples/fuzz_http_request
///    checks that);
///  - an HTTP/1.1 peer that sent `Expect: 100-continue` and is waiting
///    with its body (curl does so above 1 KB) gets the interim
///    `100 Continue` once the announced length passed its cap;
///  - responses are HTTP/1.0 `Connection: close` with an exact
///    Content-Length, written with the same retry loops — a response is
///    complete or the connection is visibly dead, never silently truncated.
///
/// A `server` owns the listener and its accept threads; its user supplies
/// only a route.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/byteio.hpp"

namespace ftc::obs {
class recorder;
}  // namespace ftc::obs

namespace ftc::util::http {

/// Where a server listens.
struct listen_address {
    std::string host;
    std::uint16_t port = 0;
};

/// Parse "HOST:PORT" (e.g. "127.0.0.1:9464", "0.0.0.0:0") given to
/// \p flag; throws ftc::error naming the flag on a malformed address.
/// "localhost" maps to 127.0.0.1.
listen_address parse_listen_address(const std::string& spec, std::string_view flag);

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

/// Outcome of reading a request; everything except `ok` ends the
/// connection (after an error response where one is still possible).
enum class read_status {
    ok,
    eof,          ///< peer closed before a full request arrived
    bad_request,  ///< malformed request line / headers / Content-Length
    too_large,    ///< head or body exceeds its cap
    timeout,      ///< deadline expired (slow-loris or stalled transfer)
    reset,        ///< connection reset mid-request
};

/// Parse \p bytes, everything a peer sent before it closed, as one request
/// under \p limits. Bytes that end before the request does are `eof`;
/// bytes past the announced Content-Length are `bad_request`.
read_status parse_request(std::string_view bytes, const http_limits& limits,
                          http_request& out);

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

/// One answer of a route.
struct http_response {
    int status = 200;
    std::string content_type;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;
};

/// A JSON error answer: {"error": reason}.
http_response error_response(int status, std::string_view reason);

/// What a server tells its user about a connection: `request` once its
/// request read ended (whatever the outcome), `error` once when it ends in
/// a 4xx/5xx answer, with no answer, or in a route that threw.
enum class server_event { request, error };

/// A listener with N accept threads, each serving one connection at a
/// time: read_request under the limits, 400/413 JSON errors for
/// bad_request/too_large, a silent close on eof/timeout/reset, the route
/// for everything else, and write_response. A connection that throws is
/// closed unanswered; the server never stops on a connection's error.
class server {
public:
    using route = std::function<http_response(const http_request&)>;
    using observer = std::function<void(server_event)>;

    /// Binds (throws ftc::error naming \p what when it cannot) and starts
    /// \p threads accept threads (at least one). Port 0 binds an ephemeral
    /// port; read the real one from port(). \p events may be empty.
    server(const listen_address& address, std::size_t threads, const http_limits& limits,
           route routes, observer events, const char* what);
    ~server();  ///< stop(); never throws

    /// The port actually bound (resolves an ephemeral request).
    std::uint16_t port() const { return port_; }

    /// Connections whose request read ended so far, whatever the outcome.
    std::uint64_t requests_served() const {
        return requests_.load(std::memory_order_relaxed);
    }

    /// Stop accepting, join the accept threads, close the listener.
    /// Idempotent.
    void stop() noexcept;

private:
    void accept_loop();
    void serve_connection(int fd);

    http_limits limits_;
    route route_;
    observer events_;  ///< never empty: a no-op when the user gave none
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::vector<std::thread> threads_;
};

/// The scrape route: `GET /metrics` answers obs::to_prometheus over a
/// fresh snapshot of \p rec (404 when \p rec is null); any other request
/// is 404.
http_response metrics_route(const obs::recorder* rec, const http_request& request);

/// The `--metrics-listen` endpoint: one thread serving metrics_route over
/// \p rec, which must outlive it, with serve's head cap, no body and a 2 s
/// head deadline. It reports no events.
std::unique_ptr<server> serve_metrics(const obs::recorder& rec,
                                      const listen_address& address);

}  // namespace ftc::util::http
