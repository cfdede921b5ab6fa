// The shared HTTP server and its one-route user, the --metrics-listen
// scrape endpoint: address parsing, live scrapes over a real socket
// against an ephemeral port, clean idempotent shutdown, and what the
// scrape endpoint inherits from the bounded stack (404 off its route, 413
// past the head cap, a trickling client dropped on the head deadline).
// Also the buffer-level parse against the socket reader. The registry is
// poked directly (recorder exists even under FTC_OBS_DISABLE), so the
// suite runs on every build.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include "obs/obs.hpp"
#include "serve_test_util.hpp"
#include "util/error.hpp"
#include "util/http.hpp"

namespace ftc::util::http {
namespace {

TEST(UtilHttp, ParseListenAddress) {
    const listen_address a = parse_listen_address("127.0.0.1:9464", "--metrics-listen");
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 9464);
    const listen_address local = parse_listen_address("localhost:0", "--metrics-listen");
    EXPECT_EQ(local.host, "127.0.0.1");
    EXPECT_EQ(local.port, 0);

    for (const char* bad : {"no-port", ":123", "host:", "h:65536", "h:abc"}) {
        EXPECT_THROW(parse_listen_address(bad, "--metrics-listen"), ftc::error) << bad;
    }
}

TEST(UtilHttp, ListenAddressErrorsNameTheirFlag) {
    const auto message = [](const char* spec) {
        try {
            (void)parse_listen_address(spec, "--listen");
        } catch (const ftc::error& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(message("bad"), "--listen: expected HOST:PORT, got 'bad'");
    EXPECT_EQ(message("h:70000").rfind("--listen: port 70000", 0), 0u) << message("h:70000");
    EXPECT_NE(message("h:x").find("--listen port"), std::string::npos) << message("h:x");
}

/// Both readers over the same bytes: the socket one gets them all at once,
/// then end of stream, as parse_request assumes.
read_status parse_both(const std::string& bytes, const http_limits& limits,
                       http_request& parsed) {
    const read_status from_buffer = parse_request(bytes, limits, parsed);
#if defined(__unix__) || defined(__APPLE__)
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::send(fds[0], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    ::shutdown(fds[0], SHUT_WR);
    http_request from_socket;
    EXPECT_EQ(read_request(fds[1], limits, from_socket), from_buffer) << bytes.substr(0, 80);
    if (from_buffer == read_status::ok) {
        EXPECT_EQ(from_socket.target, parsed.target);
        EXPECT_EQ(from_socket.headers, parsed.headers);
        EXPECT_EQ(from_socket.body, parsed.body);
    }
    ::close(fds[0]);
    ::close(fds[1]);
#endif
    return from_buffer;
}

TEST(UtilHttp, ParseRequestAgreesWithTheSocketReader) {
    http_limits limits;
    http_request request;
    EXPECT_EQ(parse_both("POST /jobs HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello", limits,
                         request),
              read_status::ok);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "hello");
    EXPECT_EQ(parse_both("GET /x HTTP/1.0\r\n", limits, request), read_status::eof);
    EXPECT_EQ(parse_both("POST /jobs HTTP/1.0\r\nContent-Length: 9\r\n\r\nshort", limits,
                         request),
              read_status::eof);
    EXPECT_EQ(parse_both("GET /x HTTP/1.0\r\nContent-Length: x\r\n\r\n", limits, request),
              read_status::bad_request);
    EXPECT_EQ(parse_both("GET /" + std::string(9000, 'x') + " HTTP/1.0\r\n\r\n", limits,
                         request),
              read_status::too_large);
    // More body than announced is refused however far past the head the
    // extra bytes start (the socket reader's first read takes 2 KB).
    for (const std::size_t length : {4, 5000}) {
        const std::string request_text = "POST /jobs HTTP/1.0\r\nContent-Length: " +
                                         std::to_string(length) + "\r\n\r\n" +
                                         std::string(length + 1, 'b');
        EXPECT_EQ(parse_both(request_text, limits, request), read_status::bad_request)
            << length;
    }
}

#if defined(__unix__) || defined(__APPLE__)

using serve_test::http_exchange;
using serve_test::http_get;
using serve_test::response_body;
using serve_test::response_status;

listen_address ephemeral() { return parse_listen_address("127.0.0.1:0", "--metrics-listen"); }

TEST(UtilHttp, ServesPrometheusText) {
    obs::scoped_recorder recorder;
    recorder.rec().metrics().add("pcap.datagrams_total", 42.0);
    const std::unique_ptr<server> scrape = serve_metrics(recorder.rec(), ephemeral());
    ASSERT_GT(scrape->port(), 0);  // ephemeral port resolved

    const std::string response = http_get(scrape->port(), "/metrics");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
              std::string::npos);
    EXPECT_NE(response.find("# TYPE ftc_pcap_datagrams_total counter"),
              std::string::npos);
    EXPECT_NE(response.find("# HELP ftc_pcap_datagrams_total"), std::string::npos);
    EXPECT_NE(response.find("ftc_pcap_datagrams_total 42"), std::string::npos);
}

TEST(UtilHttp, ServesLiveUpdatesAcrossRequests) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> scrape =
        serve_metrics(recorder.rec(), parse_listen_address("localhost:0", "--metrics-listen"));
    recorder.rec().metrics().add("cluster.dbscan_runs_total", 1.0);
    const std::string first = http_get(scrape->port(), "/metrics");
    EXPECT_NE(first.find("ftc_cluster_dbscan_runs_total 1"), std::string::npos);
    recorder.rec().metrics().add("cluster.dbscan_runs_total", 2.0);
    const std::string second = http_get(scrape->port(), "/metrics");
    EXPECT_NE(second.find("ftc_cluster_dbscan_runs_total 3"), std::string::npos);
    EXPECT_GE(scrape->requests_served(), 2u);
}

TEST(UtilHttp, StopIsIdempotentAndReleasesPort) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> scrape = serve_metrics(recorder.rec(), ephemeral());
    const std::uint16_t port = scrape->port();
    scrape->stop();
    scrape->stop();  // and the destructor makes a third call
    // The port is free again: a new server can bind it right away.
    const std::unique_ptr<server> again =
        serve_metrics(recorder.rec(), listen_address{"127.0.0.1", port});
    EXPECT_EQ(again->port(), port);
}

TEST(UtilHttp, BindFailureThrows) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> holder = serve_metrics(recorder.rec(), ephemeral());
    // SO_REUSEADDR does not allow two live listeners on one port.
    EXPECT_THROW((void)serve_metrics(recorder.rec(), listen_address{"127.0.0.1", holder->port()}),
                 ftc::error);
    EXPECT_THROW((void)serve_metrics(recorder.rec(), listen_address{"999.1.1.1", 0}),
                 ftc::error);
}

TEST(UtilHttp, ScrapeEndpointAnswersOnlyGetMetrics) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> scrape = serve_metrics(recorder.rec(), ephemeral());
    const std::string unknown = http_get(scrape->port(), "/nope");
    EXPECT_EQ(response_status(unknown), 404) << unknown;
    EXPECT_EQ(response_body(unknown), "{\"error\":\"no such endpoint\"}");
    EXPECT_EQ(response_status(http_exchange(scrape->port(), "POST /metrics HTTP/1.0\r\n\r\n")),
              404);
    // A body is more than the scrape endpoint takes.
    EXPECT_EQ(response_status(http_exchange(
                  scrape->port(), "GET /metrics HTTP/1.0\r\nContent-Length: 1\r\n\r\nx")),
              413);
    EXPECT_EQ(response_status(http_get(scrape->port(), "/metrics")), 200);
    // Those answers publish nothing: the serve.* counters are the daemon's.
    for (const auto& [name, value] : recorder.rec().metrics().snapshot().counters) {
        EXPECT_NE(name.rfind("serve.", 0), 0u) << name;
    }
}

TEST(UtilHttp, ScrapeEndpointRefusesAnOversizedHead) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> scrape = serve_metrics(recorder.rec(), ephemeral());
    const std::string head =
        "GET /metrics HTTP/1.0\r\nX-Pad: " + std::string(9 * 1024, 'a') + "\r\n\r\n";
    const std::string response = http_exchange(scrape->port(), head);
    EXPECT_EQ(response_status(response), 413) << response.substr(0, 200);
    EXPECT_EQ(response_status(http_get(scrape->port(), "/metrics")), 200);
}

TEST(UtilHttp, ScrapeEndpointDropsATricklingClientOnTheHeadDeadline) {
    obs::scoped_recorder recorder;
    const std::unique_ptr<server> scrape = serve_metrics(recorder.rec(), ephemeral());
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(scrape->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    const timeval patience{8, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof patience);

    // One byte of a head that never ends, every 100 ms, until the server
    // hangs up (or 6 s pass).
    const auto start = std::chrono::steady_clock::now();
    std::atomic<bool> dropped{false};
    std::thread trickle([&] {
        const std::string head = "GET /metrics HTTP/1.0\r\nX-Slow: " + std::string(60, 'a');
        for (char c : head) {
            if (dropped.load() || ::send(fd, &c, 1, MSG_NOSIGNAL) != 1) {
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });
    char byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    const auto waited = std::chrono::steady_clock::now() - start;
    dropped.store(true);
    trickle.join();
    ::close(fd);

    EXPECT_LE(n, 0) << "the trickling client got an answer";
    EXPECT_TRUE(n == 0 || errno == ECONNRESET) << "recv timed out: the client was not dropped";
    EXPECT_LT(waited, std::chrono::milliseconds(3500));  // the 2 s head deadline, plus slack
    EXPECT_EQ(response_status(http_get(scrape->port(), "/metrics")), 200);
}

TEST(UtilHttp, ServerReportsEventsAndSurvivesAThrowingRoute) {
    std::atomic<int> requests{0};
    std::atomic<int> errors{0};
    server echo(
        listen_address{"127.0.0.1", 0}, 2, http_limits{},
        [](const http_request& request) -> http_response {
            if (request.target == "/throw") {
                throw std::runtime_error("route failure");
            }
            return {200, "text/plain", request.target, {}};
        },
        [&](server_event event) {
            (event == server_event::request ? requests : errors).fetch_add(1);
        },
        "test-listen");
    EXPECT_EQ(http_get(echo.port(), "/throw"), "");  // closed unanswered
    EXPECT_EQ(response_status(http_exchange(echo.port(), "NONSENSE\r\n\r\n")), 400);
    const std::string ok = http_get(echo.port(), "/echo");
    EXPECT_EQ(response_status(ok), 200);
    EXPECT_EQ(response_body(ok), "/echo");
    EXPECT_EQ(requests.load(), 3);
    EXPECT_EQ(errors.load(), 2);
    EXPECT_EQ(echo.requests_served(), 3u);
}

#endif  // unix

}  // namespace
}  // namespace ftc::util::http
