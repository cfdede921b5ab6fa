/// \file sampler.hpp
/// Background telemetry sampler: a read-only observer thread that turns the
/// live state of a run — the ftc::obs metrics registry, the ftc::mem
/// tracked-heap counters and the obs::progress work counters — into
///
///  1. an NDJSON time-series (one JSON object per line, schema
///     "ftc.telemetry.v1", see EXPERIMENTS.md) written to a file at a fixed
///     interval, ending with exactly one `"final": true` sample on *every*
///     exit path (ok, budget-exceeded, memory-exceeded, interrupted): the
///     sampler is an RAII object, so stack unwinding flushes the final
///     sample for free; and
///  2. an optional TTY-aware progress line on stderr (`--progress`) with
///     the current stage, done/total counts, a smoothed rate and an ETA.
///
/// Determinism contract (DESIGN.md §12): the sampler only ever *reads*
/// pipeline state — registry snapshots, relaxed atomic loads — and writes
/// exclusively to its own output stream. Clustering output is bitwise
/// identical with the sampler running or absent (tests/test_obs_sampler.cpp
/// proves both, serial and parallel).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "obs/progress.hpp"

namespace ftc::obs {

struct sampler_options {
    /// NDJSON output path; empty = no telemetry file (progress line only).
    std::string telemetry_path;
    /// Sampling period; clamped to >= 10ms so a typo cannot busy-spin.
    std::chrono::milliseconds interval{500};
    /// Render a live progress line (rate + ETA) to progress_stream.
    bool progress = false;
    /// Stream for the progress line; nullptr = stderr.
    std::FILE* progress_stream = nullptr;
    /// Tri-state TTY override for tests: by default the sampler asks
    /// isatty() on the progress stream.
    bool force_tty = false;
    bool force_plain = false;
};

/// Smoothed progress-rate estimate the sampler derives between samples.
struct progress_estimate {
    double rate_per_second = 0.0;  ///< EMA of work items per second
    double eta_seconds = -1.0;     ///< remaining/rate; < 0 = unknown
};

/// One rendered progress line ("[dissim.matrix] 3421/10000 34% 1.2k/s eta 5s").
/// Exposed for tests; \p tty selects carriage-return overwrite vs plain.
std::string render_progress_line(const progress_snapshot& p, const progress_estimate& est,
                                 bool tty);

/// The background sampler. Construction opens the telemetry file (throwing
/// ftc::error when unwritable — same loud-failure policy as the exporters)
/// and starts the thread; stop() (or destruction) joins it and emits the
/// final sample carrying the last status set via set_status().
class sampler {
public:
    /// \p rec is the recorder to snapshot counters/gauges from; may be
    /// nullptr (no observability output requested), in which case samples
    /// carry only time, memory and progress. Not owned; must outlive the
    /// sampler.
    sampler(const recorder* rec, sampler_options options);

    /// Joins the thread and flushes the final sample (idempotent with a
    /// prior stop()). Never throws: a failing disk write at unwind time
    /// must not mask the original error.
    ~sampler();

    sampler(const sampler&) = delete;
    sampler& operator=(const sampler&) = delete;

    /// Status stamped into the final sample: "ok" (default), or whatever
    /// the exit path knows ("budget-exceeded", "memory-exceeded",
    /// "interrupted", "error"). Thread-safe.
    void set_status(std::string status);

    /// Stop sampling, join the thread, emit the final sample and flush.
    /// Idempotent; called by the destructor.
    void stop() noexcept;

    /// Periodic samples emitted so far (excludes the final sample).
    std::uint64_t samples_emitted() const;

    /// NDJSON lines the output stream failed to take (full disk, closed
    /// pipe). Dropped samples are counted — here, in the
    /// `telemetry.write_errors` obs counter and in the final sample's
    /// `write_errors` field — never discarded invisibly.
    std::uint64_t write_errors() const {
        return write_errors_.load(std::memory_order_relaxed);
    }

private:
    void loop();
    void emit_sample(bool final);
    void update_estimate(const progress_snapshot& p, double t_seconds);
    void render_progress(const progress_snapshot& p);

    const recorder* rec_;
    sampler_options options_;
    std::ofstream out_;
    bool tty_ = false;

    std::chrono::steady_clock::time_point start_;
    std::uint64_t seq_ = 0;
    std::atomic<std::uint64_t> write_errors_{0};

    // Rate/ETA state, touched only by the sampler thread (and by stop()
    // strictly after the join).
    progress_estimate estimate_;
    std::uint64_t last_stage_seq_ = 0;
    std::uint64_t last_done_ = 0;
    double last_t_seconds_ = 0.0;
    bool have_last_ = false;

    // Non-TTY progress spam control.
    int last_percent_ = -1;
    const char* last_stage_ = nullptr;
    double last_print_t_ = -1e9;
    bool progress_line_open_ = false;  ///< TTY line needs a closing \n

    mutable std::mutex mutex_;  ///< guards status_, stop_requested_, samples_
    std::condition_variable cv_;
    std::string status_ = "ok";
    bool stop_requested_ = false;
    bool stopped_ = false;
    std::uint64_t samples_ = 0;

    std::thread thread_;
};

}  // namespace ftc::obs
