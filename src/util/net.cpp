#include "util/net.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace ftc::util::net {

namespace {

// Fault plan. Mirrors ftc::mem's allocation plan: fields change only from
// set_io_fault_plan (tests, CLI startup), the countdown is decremented from
// the operation sites.
std::atomic<std::uint64_t> g_fail_countdown{0};
std::atomic<int> g_fail_kind{static_cast<int>(io_fault::none)};

/// Milliseconds left until \p deadline (clamped to >= 0).
int remaining_ms(std::chrono::steady_clock::time_point deadline) noexcept {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

void set_io_fault_plan(const io_fault_plan& plan) noexcept {
    g_fail_countdown.store(plan.fail_nth, std::memory_order_relaxed);
    g_fail_kind.store(static_cast<int>(plan.kind), std::memory_order_relaxed);
}

io_fault_plan get_io_fault_plan() noexcept {
    io_fault_plan plan;
    plan.fail_nth = g_fail_countdown.load(std::memory_order_relaxed);
    plan.kind = static_cast<io_fault>(g_fail_kind.load(std::memory_order_relaxed));
    return plan;
}

io_fault consume_io_fault(io_op op) noexcept {
    const io_fault kind = static_cast<io_fault>(g_fail_kind.load(std::memory_order_relaxed));
    if (kind == io_fault::none) {
        return io_fault::none;
    }
    // The countdown only ticks on operations in the kind's domain; sweeps
    // over N are then deterministic per kind.
    const bool spool_kind = kind == io_fault::corrupt_spool;
    if (spool_kind != (op == io_op::spool_op)) {
        return io_fault::none;
    }
    if (g_fail_countdown.load(std::memory_order_relaxed) == 0) {
        return io_fault::none;
    }
    if (g_fail_countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
        obs::counter_add("net.io_faults_injected_total", 1.0);
        return kind;
    }
    return io_fault::none;
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

void set_cloexec(int fd) noexcept {
    const int flags = fcntl(fd, F_GETFD);
    if (flags >= 0) {
        fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
    }
}

/// poll() one fd for \p events, retrying EINTR inside the deadline.
/// Returns > 0 ready, 0 timeout, < 0 hard error.
int poll_bounded(int fd, short events, std::chrono::steady_clock::time_point deadline) noexcept {
    for (;;) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = events;
        const int ready = poll(&pfd, 1, remaining_ms(deadline));
        if (ready >= 0) {
            return ready;
        }
        if (errno != EINTR) {
            return -1;
        }
        if (remaining_ms(deadline) == 0) {
            return 0;  // the signal ate the rest of the wait
        }
    }
}

}  // namespace

int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, const char* what) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw ftc::error(std::string{what} + ": not an IPv4 address: '" + host + "'");
    }
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw ftc::error(std::string{what} + ": socket: " + std::strerror(errno));
    }
    set_cloexec(fd);
    // O_NONBLOCK: several threads may poll one listener, and one connection
    // wakes them all. The threads that lose the race must see EAGAIN from
    // accept(), not block until the next connection (a stop() joining them
    // would wait forever).
    const int fl = fcntl(fd, F_GETFL);
    if (fl >= 0) {
        fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    }
    // SO_REUSEADDR: a restarted daemon must rebind its port through the
    // TIME_WAIT the previous incarnation's connections left behind.
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        listen(fd, backlog) != 0) {
        const std::string why = std::strerror(errno);
        close_fd(fd);
        throw ftc::error(std::string{what} + ": cannot listen on " + host + ":" +
                         std::to_string(port) + ": " + why);
    }
    if (bound_port != nullptr) {
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        *bound_port = getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0
                          ? ntohs(bound.sin_port)
                          : port;
    }
    return fd;
}

int accept_client(int listen_fd, int timeout_ms) noexcept {
    switch (consume_io_fault(io_op::accept_op)) {
        case io_fault::reset:
        case io_fault::stall:
            return -1;  // callers loop; an accept fault just drops this round
        default:
            break;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    if (poll_bounded(listen_fd, POLLIN, deadline) <= 0) {
        return -1;
    }
    for (;;) {
        const int client = accept(listen_fd, nullptr, nullptr);
        if (client >= 0) {
            set_cloexec(client);
            return client;
        }
        if (errno != EINTR) {
            return -1;  // EAGAIN/EWOULDBLOCK: another thread took the connection
        }
    }
}

io_result read_some(int fd, void* buf, std::size_t cap, int timeout_ms) noexcept {
    std::size_t limit = cap;
    switch (consume_io_fault(io_op::recv_op)) {
        case io_fault::reset:
            return {io_result::status::reset, 0};
        case io_fault::stall:
            return {io_result::status::timeout, 0};
        case io_fault::short_io:
            limit = 1;  // the kernel moved one byte; callers must re-loop
            break;
        case io_fault::fake_eintr:
        default:
            break;  // fake_eintr: observationally one extra loop iteration
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const int ready = poll_bounded(fd, POLLIN, deadline);
        if (ready == 0) {
            return {io_result::status::timeout, 0};
        }
        if (ready < 0) {
            return {io_result::status::reset, 0};
        }
        const ssize_t n = recv(fd, buf, limit, 0);
        if (n > 0) {
            return {io_result::status::ok, static_cast<std::size_t>(n)};
        }
        if (n == 0) {
            return {io_result::status::eof, 0};
        }
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
            continue;  // retry inside the deadline
        }
        return {io_result::status::reset, 0};
    }
}

io_result write_all(int fd, const void* buf, std::size_t len, int timeout_ms) noexcept {
    std::size_t chunk_cap = len;
    switch (consume_io_fault(io_op::send_op)) {
        case io_fault::reset:
            return {io_result::status::reset, 0};
        case io_fault::stall:
            return {io_result::status::timeout, 0};
        case io_fault::short_io:
            chunk_cap = 1;  // first round moves one byte; the loop finishes the rest
            break;
        case io_fault::fake_eintr:
        default:
            break;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    const char* p = static_cast<const char*>(buf);
    std::size_t sent = 0;
    while (sent < len) {
        const int ready = poll_bounded(fd, POLLOUT, deadline);
        if (ready == 0) {
            return {io_result::status::timeout, sent};
        }
        if (ready < 0) {
            return {io_result::status::reset, sent};
        }
        const std::size_t want = len - sent < chunk_cap ? len - sent : chunk_cap;
        const ssize_t n = send(fd, p + sent, want,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
        );
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            chunk_cap = len;  // an injected short round happens exactly once
            continue;
        }
        if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
            continue;  // the whole point: a signal must not tear the response
        }
        return {io_result::status::reset, sent};
    }
    return {io_result::status::ok, sent};
}

bool readable_now(int fd) noexcept {
    char byte = 0;
    return recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
}

void close_fd(int fd) noexcept {
    if (fd < 0) {
        return;
    }
    while (close(fd) != 0 && errno == EINTR) {
    }
}

#else  // !unix: no sockets — the serve daemon and scrape endpoint report
       // the platform gap at construction; these stubs keep links working.

int listen_tcp(const std::string& host, std::uint16_t port, int, std::uint16_t*,
               const char* what) {
    throw ftc::error(std::string{what} + ": sockets not supported on this platform (" +
                     host + ":" + std::to_string(port) + ")");
}
int accept_client(int, int) noexcept { return -1; }
io_result read_some(int, void*, std::size_t, int) noexcept {
    return {io_result::status::reset, 0};
}
io_result write_all(int, const void*, std::size_t, int) noexcept {
    return {io_result::status::reset, 0};
}
bool readable_now(int) noexcept { return false; }
void close_fd(int) noexcept {}

#endif

}  // namespace ftc::util::net
