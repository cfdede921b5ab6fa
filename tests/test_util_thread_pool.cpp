// Unit tests for the parallel-execution subsystem (util/thread_pool.hpp):
// block coverage, range/grain edge cases, the one-lane serial path,
// exception propagation, cooperative deadline aborts mid-fan-out and a
// lane the system cannot start.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ftc::util {
namespace {

// ASan and TSan reserve shadow address space far beyond any limit a test
// could set on it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowSanitizer = true;
#else
constexpr bool kShadowSanitizer = false;
#endif

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
    EXPECT_GE(hardware_threads(), 1u);
    EXPECT_EQ(resolve_threads(0), hardware_threads());
    EXPECT_EQ(resolve_threads(1), 1u);
    EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, AbsurdThreadCountsAreClamped) {
    // A negative CLI value wrapped through size_t must not take the
    // process down trying to start SIZE_MAX lanes.
    EXPECT_EQ(resolve_threads(static_cast<std::size_t>(-1)), max_threads());
    EXPECT_GE(max_threads(), 64u);
    std::atomic<std::size_t> covered{0};
    parallel_for(100, 10, static_cast<std::size_t>(-1),
                 [&](std::size_t begin, std::size_t end) {
                     covered.fetch_add(end - begin, std::memory_order_relaxed);
                 });
    EXPECT_EQ(covered.load(), 100u);
}

TEST(ThreadPool, OneLaneRunsInOrderOnTheCallingThread) {
    // One lane, asked for or left by a range of one block: the blocks run
    // in order on the calling thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool elsewhere = false;
    const auto record = [&](std::size_t begin, std::size_t end) {
        order.push_back(begin);
        order.push_back(end);
        elsewhere |= std::this_thread::get_id() != caller;
    };
    parallel_for(10, 3, 1, record);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 3, 6, 6, 9, 9, 10}));
    order.clear();
    parallel_for(10, 10, 4, record);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 10}));
    EXPECT_FALSE(elsewhere);
}

TEST(ThreadPool, EveryIndexProcessedExactlyOnce) {
    constexpr std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, 64, 8, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
    std::atomic<int> calls{0};
    for (const std::size_t threads : {1u, 4u}) {
        parallel_for(0, 16, threads, [&](std::size_t, std::size_t) { ++calls; });
    }
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainLargerThanRangeIsOneBlock) {
    std::atomic<int> calls{0};
    std::size_t seen_begin = 99, seen_end = 99;
    parallel_for(5, 1000, 4, [&](std::size_t begin, std::size_t end) {
        ++calls;
        seen_begin = begin;
        seen_end = end;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_begin, 0u);
    EXPECT_EQ(seen_end, 5u);
}

TEST(ThreadPool, GrainZeroTreatedAsOne) {
    std::atomic<std::size_t> calls{0};
    parallel_for(9, 0, 2, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 9u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
    for (const std::size_t threads : {1u, 4u}) {
        EXPECT_THROW(parallel_for(100, 1, threads,
                                  [&](std::size_t begin, std::size_t) {
                                      if (begin == 42) {
                                          throw std::runtime_error("lane failure");
                                      }
                                  }),
                     std::runtime_error)
            << "threads=" << threads;
    }
    // A failed fan-out leaves nothing behind: the next one runs normally.
    std::atomic<std::size_t> done{0};
    parallel_for(50, 5, 4, [&](std::size_t begin, std::size_t end) {
        done.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPool, ExceptionStopsRemainingBlocks) {
    // After one block throws, other lanes stop taking new blocks: with 256
    // pending blocks and an immediate failure, only a small prefix of the
    // fan-out (bounded by lanes in flight) can still run.
    std::atomic<std::size_t> executed{0};
    try {
        parallel_for(256, 1, 4, [&](std::size_t begin, std::size_t) {
            if (begin == 0) {
                throw std::runtime_error("abort fan-out");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            executed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected the fan-out to rethrow";
    } catch (const std::runtime_error&) {
    }
    EXPECT_LT(executed.load(), 256u);
}

TEST(ThreadPool, DeadlineAbortsMidFanout) {
    // Cooperative deadline checks inside the body abort the whole
    // parallel_for with the library's budget_exceeded_error.
    const deadline expired(0.0);
    std::atomic<std::size_t> blocks{0};
    EXPECT_THROW(parallel_for(128, 1, 4,
                              [&](std::size_t, std::size_t) {
                                  blocks.fetch_add(1, std::memory_order_relaxed);
                                  expired.check("parallel stage");
                              }),
                 budget_exceeded_error);
    EXPECT_LT(blocks.load(), 128u);
}

TEST(ThreadPool, EveryThreadCountMatchesTheSerialResult) {
    // parallel_for writes f(i) into disjoint slots; any thread count must
    // produce the identical vector.
    constexpr std::size_t n = 4096;
    std::vector<std::uint64_t> serial(n), parallel(n);
    const auto f = [](std::size_t i) { return i * 2654435761u + 17u; };
    parallel_for(n, 64, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            serial[i] = f(i);
        }
    });
    for (std::size_t threads : {2u, 4u, 8u}) {
        parallel.assign(n, 0);
        parallel_for(n, 64, threads, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                parallel[i] = f(i);
            }
        });
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
}

#if defined(__linux__)
/// Bytes of address space the process has mapped.
std::size_t mapped_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    statm >> pages;
    return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// The stack size a new thread gets by default.
std::size_t default_stack_bytes() {
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    std::size_t bytes = 0;
    pthread_attr_getstacksize(&attr, &bytes);
    pthread_attr_destroy(&attr);
    return bytes;
}

TEST(ThreadPoolDeathTest, LaneThatCannotStartLeavesTheRangeToTheOthers) {
    if (kShadowSanitizer) {
        GTEST_SKIP() << "an address-space limit cannot hold a sanitizer's shadow memory";
    }
    // The child caps its address space just above what it maps now, with
    // room for two thread stacks: of the 15 lanes it asks for, the first
    // ones start and the rest fail with std::system_error. The lanes that
    // started and the calling thread must still cover every index once.
    const auto fan_out_under_a_cap = [] {
        constexpr std::size_t n = 4096;
        std::vector<std::atomic<int>> hits(n);
        rlimit cap{};
        cap.rlim_cur = cap.rlim_max = mapped_bytes() + 2 * default_stack_bytes() + (1u << 20);
        if (setrlimit(RLIMIT_AS, &cap) != 0) {
            std::_Exit(2);
        }
        parallel_for(n, 1, 16, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            }
        });
        for (const std::atomic<int>& h : hits) {
            if (h.load() != 1) {
                std::_Exit(3);
            }
        }
        std::_Exit(0);
    };
    EXPECT_EXIT(fan_out_under_a_cap(), ::testing::ExitedWithCode(0), "");
}
#endif

}  // namespace
}  // namespace ftc::util
