#include "util/build_info.hpp"

#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#ifndef FTC_GIT_SHA
#define FTC_GIT_SHA "unknown"
#endif
#ifndef FTC_BUILD_TYPE
#define FTC_BUILD_TYPE "unknown"
#endif
#ifndef FTC_VERSION
#define FTC_VERSION "0.0.0"
#endif

namespace ftc::util {

const char* build_git_sha() { return FTC_GIT_SHA; }

const char* build_type() { return FTC_BUILD_TYPE; }

const char* build_version() { return FTC_VERSION; }

std::string build_version_string() {
    return std::string{FTC_VERSION} + "+g" + FTC_GIT_SHA;
}

std::string run_hostname() {
#if defined(__unix__) || defined(__APPLE__)
    char buf[256];
    if (gethostname(buf, sizeof buf) == 0) {
        buf[sizeof buf - 1] = '\0';
        return buf;
    }
#endif
    return "unknown";
}

std::string iso8601_utc_now() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
    gmtime_r(&now, &tm);
#else
    tm = *std::gmtime(&now);
#endif
    char buf[32];
    const std::size_t len = std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return std::string(buf, len);
}

}  // namespace ftc::util
