// The bounded HTTP/1.0 reader/writer: framing, strict Content-Length,
// size caps, slow-loris deadlines and short-write recovery — each over a
// real socketpair so the util::net retry loops run for real. Also the
// accept loop the daemon's I/O threads share: several threads waiting on
// one listener must all come back within their timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

#include "util/http.hpp"
#include "util/net.hpp"

namespace ftc::util::http {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// RAII AF_UNIX stream pair: fds[0] = test side, fds[1] = server side.
struct sock_pair {
    int fds[2] = {-1, -1};
    sock_pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~sock_pair() {
        close_client();
        ::close(fds[1]);
    }
    void close_client() {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }
    void send_text(std::string_view text) {
        ASSERT_EQ(::send(fds[0], text.data(), text.size(), 0),
                  static_cast<ssize_t>(text.size()));
    }
};

TEST(ServeHttp, ParsesRequestLineHeadersAndBody) {
    sock_pair pair;
    pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 5\r\nX-Label:  trimmed \r\n"
                   "\r\nhello");
    http_request request;
    ASSERT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.target, "/jobs");
    ASSERT_EQ(request.headers.size(), 2u);
    EXPECT_EQ(request.headers[0].first, "content-length");  // lowercased
    EXPECT_EQ(request.headers[1].first, "x-label");
    EXPECT_EQ(request.headers[1].second, "trimmed");
    ASSERT_NE(find_header(request, "x-label"), nullptr);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "hello");
}

TEST(ServeHttp, BodySplitAcrossSegmentsIsReassembled) {
    sock_pair pair;
    std::thread writer([&] {
        pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 10\r\n\r\n12");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pair.send_text("34567");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pair.send_text("890");
    });
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "1234567890");
    writer.join();
}

TEST(ServeHttp, MalformedFramingIsBadRequest) {
    const char* cases[] = {
        "GARBAGE\r\n\r\n",                                  // no method/target
        "GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n",           // bad header
        "GET /x HTTP/1.0\r\nContent-Length: -3\r\n\r\n",    // signed length
        "GET /x HTTP/1.0\r\nContent-Length: 1e3\r\n\r\n",   // non-digit length
        "GET /x FTP/9.9\r\n\r\n",                           // wrong protocol
    };
    for (const char* text : cases) {
        sock_pair pair;
        pair.send_text(text);
        pair.close_client();
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request),
                  read_status::bad_request)
            << text;
    }
}

TEST(ServeHttp, OversizedHeadAndBodyAreTooLarge) {
    http_limits limits;
    limits.max_head_bytes = 64;
    {
        sock_pair pair;
        pair.send_text("GET /" + std::string(100, 'x') + " HTTP/1.0\r\n\r\n");
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::too_large);
    }
    limits = http_limits{};
    limits.max_body_bytes = 8;
    {
        sock_pair pair;
        // Announcing more than the cap is refused before any body read.
        pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 9\r\n\r\n");
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::too_large);
    }
}

TEST(ServeHttp, SlowLorisTimesOutOnTheSharedHeadDeadline) {
    http_limits limits;
    limits.io_deadline_ms = 120;
    sock_pair pair;
    std::thread dribbler([&] {
        // One byte per poll interval, forever below the deadline's rate.
        const std::string head = "GET /healthz HTTP/1.0\r\n";
        for (char c : head) {
            ::send(pair.fds[0], &c, 1, 0);
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
    });
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::timeout);
    dribbler.join();
}

TEST(ServeHttp, PeerDisappearingMidBodyIsEof) {
    sock_pair pair;
    pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 100\r\n\r\nonly this");
    pair.close_client();
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::eof);
}

TEST(ServeHttp, ExpectContinueGetsTheInterimLineBeforeTheBody) {
    // curl sends this head for bodies over 1 KB, then holds the body back
    // for a second unless the interim line arrives first.
    sock_pair pair;
    http_request request;
    read_status status = read_status::eof;
    std::thread server([&] { status = read_request(pair.fds[1], http_limits{}, request); });
    pair.send_text("POST /jobs HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-Continue\r\n\r\n");
    const timeval patience{0, 500 * 1000};
    ::setsockopt(pair.fds[0], SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof patience);
    const std::string_view interim = "HTTP/1.1 100 Continue\r\n\r\n";
    std::string got(interim.size(), '\0');
    const ssize_t n = ::recv(pair.fds[0], got.data(), got.size(), MSG_WAITALL);
    EXPECT_EQ(n, static_cast<ssize_t>(interim.size()));
    EXPECT_EQ(got, interim);
    pair.send_text("hello");
    server.join();
    EXPECT_EQ(status, read_status::ok);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "hello");
}

TEST(ServeHttp, NoInterimLineForHttp10OrABodyAlreadySent) {
    const char* cases[] = {
        "POST /jobs HTTP/1.0\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello",
        "POST /jobs HTTP/1.1\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\nhello",
    };
    for (const char* text : cases) {
        sock_pair pair;
        pair.send_text(text);
        http_request request;
        ASSERT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok) << text;
        char byte = 0;
        EXPECT_EQ(::recv(pair.fds[0], &byte, 1, MSG_DONTWAIT), -1) << text;
    }
}

TEST(ServeHttp, WriteResponseFramesStatusHeadersAndBody) {
    sock_pair pair;
    EXPECT_TRUE(write_response(pair.fds[1], 503, "application/json", "{\"error\":\"x\"}",
                               {{"Retry-After", "7"}}, 1000));
    ::shutdown(pair.fds[1], SHUT_WR);
    std::string response;
    char buf[1024];
    ssize_t n;
    while ((n = ::recv(pair.fds[0], buf, sizeof buf, 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(response.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Length: 13\r\n"), std::string::npos);
    EXPECT_NE(response.find("Retry-After: 7\r\n"), std::string::npos);
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(response.find("\r\n\r\n{\"error\":\"x\"}"), std::string::npos);
}

TEST(ServeHttp, WriteToClosedPeerReportsFailureNotSignal) {
    sock_pair pair;
    pair.close_client();
    // MSG_NOSIGNAL path: the dead peer is a return value, not SIGPIPE.
    EXPECT_FALSE(write_response(pair.fds[1], 200, "text/plain",
                                std::string(1 << 16, 'a'), {}, 200));
}

/// Blocking TCP connect to 127.0.0.1:port; -1 on failure.
int connect_local(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(ServeHttp, AcceptersSharingOneListenerAllReturnWithinTimeout) {
    // The daemon runs two I/O threads on one listener, and daemon::stop()
    // joins them. One connection wakes both pollers; under CPU contention
    // the thread that loses the race to accept() has often seen the
    // connection pending too, and must come back -1 at once instead of
    // blocking until the next connection. Busy threads supply the
    // contention, and rounds repeat the race. SO_RCVTIMEO bounds a blocking
    // accept(), so a regression fails here instead of hanging the suite.
    constexpr int kTimeoutMs = 250;
    constexpr int kRounds = 10;
    const auto late = std::chrono::milliseconds(kTimeoutMs + 1000);
    struct spinners {
        std::atomic<bool> done{false};
        std::vector<std::thread> threads;
        ~spinners() {
            done.store(true);
            for (std::thread& t : threads) {
                t.join();
            }
        }
    } busy;
    const unsigned lanes = std::clamp(std::thread::hardware_concurrency(), 2u, 8u);
    for (unsigned b = 0; b < lanes; ++b) {
        busy.threads.emplace_back([&busy] {
            while (!busy.done.load(std::memory_order_relaxed)) {
            }
        });
    }
    std::atomic<int> late_calls{0};
    std::atomic<int> accepted{0};
    for (int round = 0; round < kRounds; ++round) {
        std::uint16_t port = 0;
        const int listener = util::net::listen_tcp("127.0.0.1", 0, 4, &port, "accept race");
        const timeval bound{2, 0};
        ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &bound, sizeof bound);
        std::vector<std::thread> acceptors;
        for (int t = 0; t < 2; ++t) {
            acceptors.emplace_back([&] {
                const auto start = std::chrono::steady_clock::now();
                const int fd = util::net::accept_client(listener, kTimeoutMs);
                if (std::chrono::steady_clock::now() - start > late) {
                    late_calls.fetch_add(1);
                }
                if (fd >= 0) {
                    accepted.fetch_add(1);
                    util::net::close_fd(fd);
                }
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));  // both inside poll()
        const int client = connect_local(port);
        for (std::thread& t : acceptors) {
            t.join();
        }
        util::net::close_fd(client);
        util::net::close_fd(listener);
    }
    EXPECT_EQ(late_calls.load(), 0) << "accept_client blocked past its timeout";
    EXPECT_EQ(accepted.load(), kRounds);
}

#endif  // unix

TEST(ServeHttp, StatusReasonsCoverEmittedCodes) {
    EXPECT_EQ(status_reason(200), "OK");
    EXPECT_EQ(status_reason(202), "Accepted");
    EXPECT_EQ(status_reason(400), "Bad Request");
    EXPECT_EQ(status_reason(404), "Not Found");
    EXPECT_EQ(status_reason(405), "Method Not Allowed");
    EXPECT_EQ(status_reason(409), "Conflict");
    EXPECT_EQ(status_reason(413), "Payload Too Large");
    EXPECT_EQ(status_reason(503), "Service Unavailable");
    EXPECT_EQ(status_reason(599), "Error");
}

}  // namespace
}  // namespace ftc::util::http
