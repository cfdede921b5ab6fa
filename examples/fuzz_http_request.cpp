/// \file fuzz_http_request.cpp
/// Fuzz target for the HTTP request reader that `ftclust serve` and the
/// `--metrics-listen` endpoint share: every input goes through the
/// buffer-level util::http::parse_request and through read_request over a
/// socketpair that already holds all of it.
///
/// Each iteration, derived from a seeded ftc::rng so every run is
/// reproducible, generates a request (method, target, version, headers,
/// Content-Length, Expect, body) from pools of valid and hostile values,
/// then may mutate its bytes: truncation, byte flips, insertions,
/// deletions, a stray blank line, bare-LF line ends. It runs under one of
/// three limit sets (serve's defaults with a small body cap, tiny caps,
/// the scrape endpoint's no-body caps). The invariants under test: every
/// input ends in a typed read_status without a crash (CI runs this under
/// ASan/UBSan), and both paths return the same status and, when it is
/// `ok`, the same request. Registered in ctest as a fixed-seed smoke run.
///
/// Usage: fuzz_http_request [iterations] [seed]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/http.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftc;
using util::http::http_limits;
using util::http::http_request;
using util::http::read_status;

const char* status_name(read_status status) {
    switch (status) {
        case read_status::ok:
            return "ok";
        case read_status::eof:
            return "eof";
        case read_status::bad_request:
            return "bad_request";
        case read_status::too_large:
            return "too_large";
        case read_status::timeout:
            return "timeout";
        case read_status::reset:
            return "reset";
    }
    return "untyped";
}

std::string pick(rng& rand, const std::vector<std::string>& pool) { return rand.pick(pool); }

std::string content_length_value(rng& rand, std::size_t body_size) {
    const std::string exact = std::to_string(body_size);
    switch (rand.uniform(0, 9)) {
        case 0:
            return std::to_string(body_size + 1);
        case 1:
            return body_size > 0 ? std::to_string(body_size - 1) : "0";
        case 2:
            return pick(rand, {"", "-1", "+5", "00005", " 5", "5 ", "1e3", "0x10", "5,5"});
        case 3:
            return pick(rand, {"9999999999999999999", "18446744073709551615",
                               "18446744073709551616", "99999999999999999999"});
        case 4:
            return "0" + exact;
        default:
            return exact;
    }
}

/// One generated request, before mutation.
std::string generate(rng& rand) {
    const std::string method =
        pick(rand, {"GET", "GET", "POST", "POST", "PUT", "DELETE", "HEAD", "get", "", "G ET",
                    std::string(40, 'M')});
    const std::string target =
        pick(rand, {"/metrics", "/jobs", "/jobs/1", "/jobs/7/report", "/healthz", "*", "",
                    "/a b", "/jobs/18446744073709551616/report",
                    std::string("/").append(rand.uniform(0, 9000), 't')});
    const std::string version =
        pick(rand, {"HTTP/1.0", "HTTP/1.0", "HTTP/1.1", "HTTP/1.1", "HTTP/2", "http/1.1",
                    "FTP/1.0", "HTTP/", ""});
    const std::string body_text(rand.uniform(0, 1) == 0 ? 0 : rand.uniform(0, 6000), 'b');
    std::string out = method + " " + target + " " + version + "\r\n";
    const std::size_t headers = rand.small_count(0, 8, 0.6);
    bool announced = false;
    for (std::size_t h = 0; h < headers; ++h) {
        switch (rand.uniform(0, 9)) {
            case 0:
            case 1:
                out += pick(rand, {"Content-Length", "content-length", "CONTENT-LENGTH "}) +
                       ":" + pick(rand, {" ", "", "\t"}) +
                       content_length_value(rand, body_text.size()) + "\r\n";
                announced = true;
                break;
            case 2:
                out += "Expect: " +
                       pick(rand, {"100-continue", "100-Continue", "200-ok", ""}) + "\r\n";
                break;
            case 3:
                out += "X-Pad: " + std::string(rand.uniform(0, 9000), 'p') + "\r\n";
                break;
            case 4:
                out += pick(rand, {"NoColonHere", ": empty-name", " : spaced", "X:", "X: \t "}) +
                       "\r\n";
                break;
            default:
                out += pick(rand, {"Host", "User-Agent", "Accept", "X-Label"}) + ":  v" +
                       std::to_string(rand.uniform(0, 99)) + "  \r\n";
                break;
        }
    }
    if (!announced && !body_text.empty() && rand.chance(0.8)) {
        out += "Content-Length: " + std::to_string(body_text.size()) + "\r\n";
    }
    out += "\r\n";
    out += body_text;
    return out;
}

void mutate(rng& rand, std::string& bytes) {
    const std::size_t rounds = rand.small_count(1, 4, 0.4);
    for (std::size_t r = 0; r < rounds; ++r) {
        const std::size_t at = bytes.empty() ? 0 : rand.uniform(0, bytes.size() - 1);
        switch (rand.uniform(0, 6)) {
            case 0:
                bytes.resize(bytes.empty() ? 0 : rand.uniform(0, bytes.size()));
                break;
            case 1:
                if (!bytes.empty()) {
                    bytes[at] = static_cast<char>(rand.byte());
                }
                break;
            case 2:
                bytes.insert(at, std::string(rand.uniform(1, 8), static_cast<char>(rand.byte())));
                break;
            case 3:
                bytes.erase(at, rand.uniform(1, 16));
                break;
            case 4:
                bytes.insert(at, "\r\n\r\n");
                break;
            case 5:
                for (std::size_t i = 0; (i = bytes.find("\r\n", i)) != std::string::npos;) {
                    bytes.erase(i, 1);  // bare LF line ends
                }
                break;
            default:
                bytes.insert(at, bytes.substr(at, rand.uniform(1, 64)));
                break;
        }
    }
}

/// read_request over a socketpair that holds all of \p bytes and then
/// end of stream — the peer parse_request describes.
read_status read_over_socket(const std::string& bytes, const http_limits& limits,
                             http_request& out) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw error("fuzz_http_request: socketpair failed");
    }
    const int buffer = 1 << 20;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &buffer, sizeof buffer);
    const ssize_t sent =
        ::send(fds[0], bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    ::shutdown(fds[0], SHUT_WR);
    const read_status status = util::http::read_request(fds[1], limits, out);
    ::close(fds[0]);
    ::close(fds[1]);
    if (sent != static_cast<ssize_t>(bytes.size())) {
        throw error("fuzz_http_request: the socketpair took only part of the input");
    }
    return status;
}

bool same_request(const http_request& a, const http_request& b) {
    return a.method == b.method && a.target == b.target && a.version == b.version &&
           a.headers == b.headers && a.body == b.body;
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t iterations =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 50000;
    const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;

    // serve's defaults with a body cap the generator can cross, tiny caps,
    // and the scrape endpoint's (no body).
    std::vector<http_limits> limit_sets(3);
    limit_sets[0].max_body_bytes = 4096;
    limit_sets[1].max_head_bytes = 64;
    limit_sets[1].max_body_bytes = 8;
    limit_sets[2].max_body_bytes = 0;
    for (http_limits& limits : limit_sets) {
        limits.io_deadline_ms = 2000;
    }

    try {
        rng rand(seed);
        std::map<std::string, std::size_t> tally;
        for (std::size_t i = 0; i < iterations; ++i) {
            std::string input = generate(rand);
            if (rand.chance(0.6)) {
                mutate(rand, input);
            }
            const http_limits& limits = rand.pick(limit_sets);
            http_request parsed;
            http_request read;
            const read_status from_buffer = util::http::parse_request(input, limits, parsed);
            const read_status from_socket = read_over_socket(input, limits, read);
            if (from_buffer != from_socket ||
                (from_buffer == read_status::ok && !same_request(parsed, read))) {
                std::fprintf(stderr,
                             "fuzz_http_request: iteration %zu: parse_request %s, "
                             "read_request %s on %zu bytes:\n%.200s\n",
                             i, status_name(from_buffer), status_name(from_socket),
                             input.size(), input.c_str());
                return 1;
            }
            ++tally[status_name(from_buffer)];
        }
        std::printf("fuzz_http_request: %zu iterations,", iterations);
        for (const auto& [name, count] : tally) {
            std::printf(" %zu %s,", count, name.c_str());
        }
        std::printf(" 0 disagreements, 0 crashes\n");
        return 0;
    } catch (const error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
