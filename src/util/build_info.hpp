/// \file build_info.hpp
/// Build provenance shared by every artifact that names its producer: the
/// `ftclust version` subcommand, the run-manifest `version` field and the
/// BENCH_*.json `meta` block all report the same values, so any two of
/// them can be traced to the commit that produced them.
///
/// Values are burned in at CMake configure time (FTC_GIT_SHA /
/// FTC_BUILD_TYPE / FTC_VERSION compile definitions on build_info.cpp
/// alone, so a SHA change rebuilds one translation unit, not the world).
#pragma once

#include <string>

namespace ftc::util {

/// Short git SHA the build was configured at ("unknown" outside a
/// checkout, e.g. a source tarball).
const char* build_git_sha();

/// CMake build type ("RelWithDebInfo", "Debug", ...).
const char* build_type();

/// Project semantic version (CMake project VERSION).
const char* build_version();

/// "VERSION+gSHA" — the single string stamped into manifests.
std::string build_version_string();

/// Hostname of this machine ("unknown" when unavailable). Runtime, not
/// build-time: a binary may run on a different box than it was built on,
/// and bench history cares about where the numbers were *measured*.
std::string run_hostname();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-09T12:34:56Z").
std::string iso8601_utc_now();

}  // namespace ftc::util
