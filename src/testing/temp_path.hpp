/// \file temp_path.hpp
/// Per-process scratch paths for the test suites and examples.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace ftc::testing {

/// \p name inside this process' own directory under the system temp path
/// (`ftc_<pid>`), so suites that run at once, say from two build
/// directories, never share a file. The directory is created on first use
/// and removed with everything in it when the process exits normally.
inline std::filesystem::path temp_path(std::string_view name) {
    static const struct process_dir {
        std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("ftc_" + std::to_string(::getpid()));
        process_dir() { std::filesystem::create_directories(path); }
        process_dir(const process_dir&) = delete;
        process_dir& operator=(const process_dir&) = delete;
        ~process_dir() {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    } dir;
    return dir.path / std::string{name};
}

}  // namespace ftc::testing
