/// \file daemon.hpp
/// HTTP front door of `ftclust serve` (ftc::serve::daemon).
///
/// A small pool of I/O threads accepts local HTTP/1.0 connections and
/// routes them onto the session manager:
///
///   POST /jobs              submit a capture (body = pcap bytes)
///                           202 {"job": id}  — journaled before the ack
///                           503 {"error": reason} + Retry-After when shed
///   GET  /jobs/<id>         job status JSON (404 for unknown ids)
///   GET  /jobs/<id>/report  the finished analyst report
///                           (409 while queued/running, 404 unknown)
///   GET  /healthz           {"status","queue","active","pressure"}
///   GET  /metrics           Prometheus text exposition (404 when the
///                           daemon runs without a metrics recorder)
///
/// Every connection is bounded by util::http::server: head and body caps,
/// one deadline for the whole request head (slow-loris defense),
/// deadline-bounded writes, typed 400/413 answers. A misbehaving client
/// costs one connection, never a worker session; the daemon keeps only its
/// routes. stop() (or destruction) closes the listener and joins the I/O
/// threads.
#pragma once

#include <cstdint>
#include <string>

#include "serve/session.hpp"
#include "util/http.hpp"

namespace ftc::obs {
class recorder;
}  // namespace ftc::obs

namespace ftc::serve {

/// Listener configuration; session behavior lives in serve_options.
struct daemon_options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral, read back via port()
    std::size_t io_threads = 2;
    util::http::http_limits limits;
};

class daemon {
public:
    /// Binds the listener (throws ftc::error on failure) and starts the
    /// I/O threads. \p recorder may be nullptr: /metrics then answers 404
    /// and counters fall back to the ambient obs hooks.
    daemon(session_manager& sessions, obs::recorder* recorder, const daemon_options& options);

    std::uint16_t port() const { return server_.port(); }

    /// Stop accepting, close the listener, join the I/O threads.
    void stop() noexcept { server_.stop(); }

private:
    util::http::http_response route(const util::http::http_request& request);

    session_manager& sessions_;
    obs::recorder* recorder_;
    util::http::server server_;  ///< last: its threads call route()
};

}  // namespace ftc::serve
