/// \file thread_pool.hpp
/// Reusable parallel-execution subsystem: a persistent worker pool and a
/// blocked parallel_for over an index range.
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
///   n  -> the calling thread plus n-1 pool workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftc::util {

/// Number of concurrent hardware threads; never 0 (falls back to 1 when
/// the runtime cannot tell).
std::size_t hardware_threads();

/// Hard ceiling on execution lanes: max(64, 8 * hardware_threads()).
/// Oversubscribing beyond this only adds scheduling overhead, and it keeps
/// absurd requests (e.g. a negative CLI value wrapped to SIZE_MAX) from
/// exhausting the process' thread limit.
std::size_t max_threads();

/// Resolve a user-facing thread-count option: 0 means "use the hardware",
/// any other value is taken literally up to max_threads().
std::size_t resolve_threads(std::size_t threads);

/// Fixed-size pool of worker threads executing blocked index ranges.
///
/// The calling thread always participates as one lane, so a pool built
/// with `threads == 1` owns no workers at all and parallel_for degrades to
/// a plain serial loop over the blocks in order.
class thread_pool {
public:
    /// Spawn `threads - 1` workers (0 = hardware_threads()).
    explicit thread_pool(std::size_t threads = 0);

    /// Joins all workers. Must not be called while a parallel_for runs.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Total execution lanes including the calling thread (>= 1).
    std::size_t thread_count() const { return workers_.size() + 1; }

    /// Apply `body(begin, end)` to consecutive blocks covering [0, count),
    /// each block at most `grain` indices long (grain 0 is treated as 1).
    /// Blocks are handed out dynamically for load balance; every index is
    /// processed exactly once. Blocks until all work finished. The first
    /// exception thrown by any lane is rethrown here (remaining lanes stop
    /// taking new blocks), so a cooperative deadline check inside `body`
    /// aborts the whole fan-out.
    void parallel_for(std::size_t count, std::size_t grain,
                      const std::function<void(std::size_t, std::size_t)>& body);

private:
    struct job {
        std::size_t count = 0;
        std::size_t grain = 1;
        const std::function<void(std::size_t, std::size_t)>* body = nullptr;
        std::atomic<std::size_t> next_block{0};
        std::atomic<bool> failed{false};
        std::mutex error_mutex;
        std::exception_ptr error;
    };

    /// Drain blocks of \p j until exhausted or another lane failed.
    static void run_blocks(job& j);

    void worker_loop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;  ///< workers wait here for a new job
    std::condition_variable done_;  ///< parallel_for waits here for workers
    job* job_ = nullptr;            ///< current job (guarded by mutex_)
    std::uint64_t generation_ = 0;  ///< bumped per job so each worker joins once
    std::size_t pending_ = 0;       ///< workers that have not picked up the job
    std::size_t busy_ = 0;          ///< workers currently draining blocks
    bool stop_ = false;
};

/// One-shot helper: run \p body over [0, count) in blocks of \p grain on
/// \p threads lanes (0 = hardware, 1 = serial on the calling thread).
/// Spawns a transient pool only when the range actually spans multiple
/// blocks and more than one lane was requested.
void parallel_for(std::size_t count, std::size_t grain, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ftc::util
