// The daemon's HTTP surface end to end over real sockets: job
// submission, status and report retrieval, health and metrics endpoints,
// shedding with Retry-After, and typed HTTP errors for bad requests —
// none of which may take the daemon down.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve_test_util.hpp"
#include "testing/temp_path.hpp"

namespace ftc::serve {
namespace {

namespace fs = std::filesystem;

#if defined(__unix__) || defined(__APPLE__)

using serve_test::http_exchange;
using serve_test::http_get;
using serve_test::http_post;
using serve_test::response_body;
using serve_test::response_status;

struct daemon_fixture {
    explicit daemon_fixture(const char* name, serve_options options = make_options())
        : journal((fs::remove_all(testing::temp_path(name)), testing::temp_path(name))),
          sessions(journal, options) {
        sessions.start();
        daemon_options dopt;
        dopt.limits.io_deadline_ms = 2000;
        server.emplace(sessions, nullptr, dopt);
    }

    static serve_options make_options() {
        serve_options options;
        options.sessions = 2;
        options.pipeline_threads = 1;
        return options;
    }

    std::uint16_t port() const { return server->port(); }

    spool journal;
    session_manager sessions;
    std::optional<daemon> server;
};

/// Poll GET /jobs/<id> until the state settles (done/failed) or timeout.
std::string wait_for_job(std::uint16_t port, std::uint64_t id, int patience_ms = 30000) {
    const std::string target = "/jobs/" + std::to_string(id);
    for (int waited = 0; waited < patience_ms; waited += 50) {
        const std::string response = http_get(port, target);
        const std::string body = response_body(response);
        if (body.find("\"state\":\"done\"") != std::string::npos ||
            body.find("\"state\":\"failed\"") != std::string::npos) {
            return body;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return {};
}

TEST(ServeDaemon, SubmitPollFetchReportRoundTrip) {
    daemon_fixture fx("ftc_serve_daemon_roundtrip");
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);

    const std::string accepted = http_post(fx.port(), "/jobs", raw);
    EXPECT_EQ(response_status(accepted), 202);
    EXPECT_NE(response_body(accepted).find("\"job\":1"), std::string::npos);

    // Not finished yet (or already done — either way the status endpoint
    // answers 200 with a state).
    EXPECT_EQ(response_status(http_get(fx.port(), "/jobs/1")), 200);

    const std::string body = wait_for_job(fx.port(), 1);
    EXPECT_NE(body.find("\"state\":\"done\""), std::string::npos) << body;

    const std::string report = http_get(fx.port(), "/jobs/1/report");
    EXPECT_EQ(response_status(report), 200);
    EXPECT_NE(response_body(report).find("cluster  kind"), std::string::npos)
        << response_body(report).substr(0, 200);
}

TEST(ServeDaemon, ReportBeforeDoneIsConflictUnknownIsNotFound) {
    daemon_fixture fx("ftc_serve_daemon_conflict");
    EXPECT_EQ(response_status(http_get(fx.port(), "/jobs/99")), 404);
    EXPECT_EQ(response_status(http_get(fx.port(), "/jobs/99/report")), 404);

    const byte_vector garbage(32, std::uint8_t{0x00});
    EXPECT_EQ(response_status(http_post(fx.port(), "/jobs", garbage)), 202);
    const std::string body = wait_for_job(fx.port(), 1);
    EXPECT_NE(body.find("\"state\":\"failed\""), std::string::npos) << body;
    // A failed job's report does not exist: 409 carries the status JSON.
    const std::string report = http_get(fx.port(), "/jobs/1/report");
    EXPECT_EQ(response_status(report), 409);
    EXPECT_NE(response_body(report).find("\"error\""), std::string::npos);
}

TEST(ServeDaemon, ShedsWithRetryAfterWhenNotAccepting) {
    const fs::path dir = testing::temp_path("ftc_serve_daemon_shed");
    fs::remove_all(dir);
    spool journal(dir);
    session_manager sessions(journal, daemon_fixture::make_options());
    // Deliberately never started: admission refuses everything, which is
    // exactly the daemon's answer shape under overload.
    daemon server(sessions, nullptr, daemon_options{});
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 10, 1);
    const std::string response = http_post(server.port(), "/jobs", raw);
    EXPECT_EQ(response_status(response), 503);
    EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos) << response;
    EXPECT_NE(response_body(response).find("\"error\""), std::string::npos);
}

TEST(ServeDaemon, HealthzReportsQueueAndPressure) {
    daemon_fixture fx("ftc_serve_daemon_healthz");
    const std::string response = http_get(fx.port(), "/healthz");
    EXPECT_EQ(response_status(response), 200);
    const std::string body = response_body(response);
    EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(body.find("\"queue\":"), std::string::npos);
    EXPECT_NE(body.find("\"pressure\":"), std::string::npos);
}

TEST(ServeDaemon, MetricsServedWhenRecorderInstalled) {
    const fs::path dir = testing::temp_path("ftc_serve_daemon_metrics");
    fs::remove_all(dir);
    obs::scoped_recorder recorder;
    recorder.rec().metrics().add("serve.jobs_submitted_total", 3.0);
    spool journal(dir);
    session_manager sessions(journal, daemon_fixture::make_options());
    sessions.start();
    daemon server(sessions, &recorder.rec(), daemon_options{});
    const std::string response = http_get(server.port(), "/metrics");
    EXPECT_EQ(response_status(response), 200);
    EXPECT_NE(response.find("ftc_serve_jobs_submitted_total 3"), std::string::npos)
        << response.substr(0, 400);
}

TEST(ServeDaemon, MetricsWithoutRecorderIs404) {
    daemon_fixture fx("ftc_serve_daemon_nometrics");
    EXPECT_EQ(response_status(http_get(fx.port(), "/metrics")), 404);
}

TEST(ServeDaemon, MalformedAndOversizedRequestsAreTypedErrors) {
    daemon_fixture fx("ftc_serve_daemon_badreq");
    EXPECT_EQ(response_status(http_exchange(fx.port(), "NONSENSE\r\n\r\n")), 400);
    EXPECT_EQ(response_status(http_get(fx.port(), "/no/such/endpoint")), 404);
    EXPECT_EQ(response_status(http_exchange(
                  fx.port(), "DELETE /jobs/1 HTTP/1.0\r\n\r\n")),
              405);
    // A body announcing more than the cap is refused up front.
    const std::string huge = "POST /jobs HTTP/1.0\r\nContent-Length: 999999999999\r\n\r\n";
    EXPECT_EQ(response_status(http_exchange(fx.port(), huge)), 413);
    // And the daemon is still alive and serving.
    EXPECT_EQ(response_status(http_get(fx.port(), "/healthz")), 200);
}

TEST(ServeDaemon, StopIsIdempotentAndReleasesThePort) {
    const fs::path dir = testing::temp_path("ftc_serve_daemon_stop");
    fs::remove_all(dir);
    spool journal(dir);
    session_manager sessions(journal, daemon_fixture::make_options());
    sessions.start();
    auto server = std::make_optional<daemon>(sessions, nullptr, daemon_options{});
    const std::uint16_t port = server->port();
    server->stop();
    server->stop();
    server.reset();  // destructor stops a third time
    daemon_options again_opt;
    again_opt.port = port;
    daemon again(sessions, nullptr, again_opt);
    EXPECT_EQ(again.port(), port);
}

#endif  // unix

}  // namespace
}  // namespace ftc::serve
