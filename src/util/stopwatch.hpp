/// \file stopwatch.hpp
/// Wall-clock measurement and cooperative deadlines.
///
/// The paper reports four analysis runs that "fail due to exceeding runtime
/// or memory constraints" (Table II). ftc::deadline lets long-running
/// substrates (notably the Netzob-style aligner) reproduce that behaviour by
/// throwing ftc::budget_exceeded_error when a configured budget elapses.
#pragma once

#include <chrono>
#include <limits>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/interrupt.hpp"

namespace ftc {

/// Simple monotonic stopwatch.
class stopwatch {
public:
    stopwatch() : start_(clock::now()) {}

    /// Seconds elapsed since construction or the last reset().
    double elapsed_seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    void reset() { start_ = clock::now(); }

private:
    using clock = std::chrono::steady_clock;
    // Timings must survive NTP steps and DST changes: a wall clock here
    // would let elapsed_seconds() go backwards and expire deadlines early.
    static_assert(clock::is_steady, "stopwatch requires a monotonic clock");
    clock::time_point start_;
};

/// Cooperative wall-clock budget. A default-constructed deadline never
/// expires on its own; a bounded one throws from check() once the budget is
/// exceeded. Every deadline — bounded or not — also honours the process
/// interrupt flag (util/interrupt.hpp), so the cancellation points that
/// already poll a deadline double as graceful-shutdown points for free.
class deadline {
public:
    /// Unlimited deadline (still interruptible).
    deadline() = default;

    /// Deadline expiring \p seconds from now.
    explicit deadline(double seconds) : budget_seconds_(seconds) {}

    /// True once the budget has elapsed or the process was interrupted.
    bool expired() const { return interrupt_requested() || over_budget(); }

    /// Throw ftc::interrupted_error on a pending interrupt, else
    /// ftc::budget_exceeded_error if the time budget elapsed. \p what names
    /// the operation for the error message.
    void check(std::string_view what) const {
        if (interrupt_requested()) {
            throw interrupted_error(std::string{what} + ": interrupted by stop request");
        }
        if (over_budget()) {
            throw budget_exceeded_error(std::string{what} + ": exceeded runtime budget");
        }
    }

private:
    static constexpr double kUnlimited = std::numeric_limits<double>::infinity();

    /// Unlimited deadlines never read the clock.
    bool over_budget() const {
        return budget_seconds_ != kUnlimited && watch_.elapsed_seconds() > budget_seconds_;
    }

    double budget_seconds_ = kUnlimited;
    stopwatch watch_;
};

}  // namespace ftc
