#include "serve/daemon.hpp"

#include <charconv>
#include <fstream>

#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace ftc::serve {

namespace {

using util::http::error_response;
using util::http::http_request;
using util::http::http_response;

/// Parse "/jobs/<digits>[/report]" — returns false for anything else.
bool parse_job_target(std::string_view target, std::uint64_t& id, bool& want_report) {
    constexpr std::string_view kPrefix = "/jobs/";
    if (target.rfind(kPrefix, 0) != 0) {
        return false;
    }
    target.remove_prefix(kPrefix.size());
    want_report = false;
    constexpr std::string_view kReport = "/report";
    if (target.size() > kReport.size() &&
        target.compare(target.size() - kReport.size(), kReport.size(), kReport) == 0) {
        want_report = true;
        target.remove_suffix(kReport.size());
    }
    const char* end = target.data() + target.size();
    return !target.empty() && target.size() <= 19 &&
           std::from_chars(target.data(), end, id).ptr == end;
}

std::string status_json(const job_status& status) {
    obs::json_writer w;
    w.begin_object();
    w.key("job");
    w.value(status.id);
    w.key("state");
    w.value(job_state_name(status.state));
    w.key("degraded");
    w.value(status.degraded);
    w.key("recovered");
    w.value(status.recovered);
    if (!status.error.empty()) {
        w.key("error");
        w.value(std::string_view{status.error});
    }
    w.end_object();
    return w.take();
}

/// serve.requests_total counts every connection whose request read ended,
/// serve.http_errors_total the ones that end in an error or unanswered.
void count_event(util::http::server_event event) {
    obs::counter_add(event == util::http::server_event::request ? "serve.requests_total"
                                                                : "serve.http_errors_total",
                     1.0);
}

}  // namespace

daemon::daemon(session_manager& sessions, obs::recorder* recorder,
               const daemon_options& options)
    : sessions_(sessions),
      recorder_(recorder),
      server_({options.host, options.port}, options.io_threads, options.limits,
              [this](const http_request& request) { return route(request); }, count_event,
              "serve-listen") {}

http_response daemon::route(const http_request& request) {
    if (request.method == "POST" && request.target == "/jobs") {
        const admission verdict = sessions_.submit(
            byte_view{request.body.data(), request.body.size()});
        if (!verdict.accepted) {
            http_response shed = error_response(503, verdict.reason);
            shed.headers.emplace_back("Retry-After",
                                      std::to_string(sessions_.options().retry_after_seconds));
            return shed;
        }
        obs::json_writer w;
        w.begin_object();
        w.key("job");
        w.value(verdict.id);
        w.key("state");
        w.value("queued");
        w.end_object();
        return {202, "application/json", w.take(), {}};
    }

    std::uint64_t id = 0;
    bool want_report = false;
    if (parse_job_target(request.target, id, want_report)) {
        if (request.method != "GET") {
            return error_response(405, "use GET");
        }
        const std::optional<job_status> status = sessions_.status(id);
        if (!status.has_value()) {
            return error_response(404, "unknown job");
        }
        if (status->state != job_state::done || !want_report) {
            return {want_report ? 409 : 200, "application/json", status_json(*status), {}};
        }
        std::ifstream in(sessions_.journal().report_file(id), std::ios::binary);
        std::string report((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        if (!in.is_open()) {
            return error_response(404, "report file missing");
        }
        return {200, "text/plain; charset=utf-8", std::move(report), {}};
    }

    if (request.method == "GET" && request.target == "/healthz") {
        obs::json_writer w;
        w.begin_object();
        w.key("status");
        w.value("ok");
        w.key("queue");
        w.value(static_cast<std::uint64_t>(sessions_.queued()));
        w.key("active");
        w.value(static_cast<std::uint64_t>(sessions_.active()));
        w.key("pressure");
        w.value(static_cast<std::int64_t>(sessions_.pressure_level()));
        w.end_object();
        return {200, "application/json", w.take(), {}};
    }

    // GET /metrics, and 404 for every other request.
    return util::http::metrics_route(recorder_, request);
}

}  // namespace ftc::serve
