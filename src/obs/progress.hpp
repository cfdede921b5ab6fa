/// \file progress.hpp
/// Process-global work progress counters: the write side of live progress
/// reporting (obs/sampler.hpp is the read side).
///
/// Long-running stages announce how much work they are about to do
/// (progress_stage) and tick it off as it completes (progress_add):
/// segments decoded, matrix rows, k-NN rows, DBSCAN points. The background
/// sampler turns the counters into a TTY progress line with rate and ETA
/// and into the `progress` object of every telemetry NDJSON sample.
///
/// Contract:
///  - Writers pay a handful of relaxed atomic stores per *work block*
///    (a matrix row, a message, a DBSCAN point) — never per byte or pair —
///    so the hooks stay on unconditionally, like ftc::mem accounting.
///  - Reads are wait-free and never block a writer; a reader may observe a
///    momentarily torn (stage, done, total) triple across a stage switch,
///    so progress_now() revalidates with a sequence counter (seqlock).
///  - Progress is *observational only*: no pipeline decision may read it,
///    so clustering output is bitwise identical whether or not anyone
///    looks (tests/test_obs_sampler.cpp proves it end to end).
///
/// \p stage must be a string literal (or otherwise outlive all readers):
/// only the pointer is stored, matching the obs::span convention.
#pragma once

#include <atomic>
#include <cstdint>

namespace ftc::obs {

/// One coherent view of the progress state. `stage == nullptr` means no
/// stage has been announced.
struct progress_snapshot {
    const char* stage = nullptr;
    std::uint64_t stage_seq = 0;  ///< bumped on every progress_stage()
    std::uint64_t done = 0;
    std::uint64_t total = 0;  ///< 0 = unknown amount of work
};

/// Announce a new stage with \p total work items (0 = unknown); resets the
/// done counter. Call from the thread that owns the stage, before fan-out.
void progress_stage(const char* stage, std::uint64_t total) noexcept;

/// Tick \p delta completed work items of the current stage. Safe from any
/// thread (the parallel_for lanes call this once per row/block).
void progress_add(std::uint64_t delta) noexcept;

/// Coherent snapshot of the current stage's progress.
progress_snapshot progress_now() noexcept;

}  // namespace ftc::obs
