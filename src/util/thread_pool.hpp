/// \file thread_pool.hpp
/// Parallel execution: a blocked parallel_for over an index range whose
/// lanes live for exactly one call.
///
/// The pipeline's hot paths (pairwise dissimilarity matrix, k-NN
/// extraction, the epsilon auto-configuration sweep, Netzob's pairwise
/// alignment stage) are pure fan-outs over independent work items: every
/// item writes to memory locations no other item touches and no
/// floating-point reduction is reordered. Parallel execution therefore
/// produces results *bitwise identical* to the serial path at any thread
/// count — clustering output stays reproducible, which
/// tests/test_dissim_parallel_determinism.cpp and, for Netzob,
/// tests/test_segmentation_netzob.cpp prove.
///
/// Conventions shared by every `threads` parameter in ftclust:
///   0  -> one lane per hardware thread (hardware_threads()),
///   1  -> the exact legacy serial path on the calling thread,
///   n  -> the calling thread plus n-1 threads started for the call.
#pragma once

#include <cstddef>
#include <functional>

namespace ftc::util {

/// Number of concurrent hardware threads, read once per process; never 0
/// (falls back to 1 when the runtime cannot tell).
std::size_t hardware_threads();

/// Hard ceiling on execution lanes: max(64, 8 * hardware_threads()).
/// Oversubscribing beyond this only adds scheduling overhead, and it keeps
/// absurd requests (e.g. a negative CLI value wrapped to SIZE_MAX) from
/// exhausting the process' thread limit.
std::size_t max_threads();

/// Resolve a user-facing thread-count option: 0 means "use the hardware",
/// any other value is taken literally up to max_threads().
std::size_t resolve_threads(std::size_t threads);

/// Apply `body(begin, end)` to consecutive blocks covering [0, count),
/// each block at most `grain` indices long (grain 0 is treated as 1), on
/// min(resolve_threads(threads), blocks) lanes: the calling thread plus
/// threads started for this call and joined before it returns. One lane
/// runs the blocks in order on the calling thread and starts no thread.
///
/// Lanes claim blocks dynamically for load balance; every index is
/// processed exactly once. The first exception thrown by any lane is
/// rethrown here (the other lanes stop taking new blocks), so a
/// cooperative deadline check inside `body` aborts the whole fan-out. A
/// lane the system cannot start is no error: the lanes that did start,
/// the calling thread among them, finish the range.
void parallel_for(std::size_t count, std::size_t grain, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ftc::util
