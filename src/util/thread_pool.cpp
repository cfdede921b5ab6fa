#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace ftc::util {

std::size_t hardware_threads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t max_threads() {
    return std::max<std::size_t>(64, 8 * hardware_threads());
}

std::size_t resolve_threads(std::size_t threads) {
    return threads == 0 ? hardware_threads() : std::min(threads, max_threads());
}

void parallel_for(std::size_t count, std::size_t grain, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t blocks = (count - 1) / grain + 1;
    // No point starting more lanes than there are blocks to hand out.
    const std::size_t lanes = std::min(resolve_threads(threads), blocks);

    // One pointer load per fan-out; when observability is off the
    // per-block clock reads below are skipped entirely.
    obs::recorder* const rec = obs::current();
    if (rec != nullptr) {
        rec->metrics().add("threadpool.jobs_total", 1.0);
        if (lanes > 1) {
            rec->metrics().set("threadpool.queue_depth", static_cast<double>(blocks));
        }
    }

    std::atomic<std::size_t> next_block{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    // Claim blocks until none is left or a lane failed. Nothing escapes a
    // lane: the first exception, the body's or the recorder's, is kept for
    // the calling thread to rethrow after every lane joined.
    const auto run_lane = [&] {
        using obs_clock = std::chrono::steady_clock;
        double busy_seconds = 0.0;
        try {
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t block = next_block.fetch_add(1, std::memory_order_relaxed);
                if (block >= blocks) {
                    break;
                }
                const std::size_t begin = block * grain;
                const obs_clock::time_point t0 = rec != nullptr ? obs_clock::now()
                                                                : obs_clock::time_point{};
                body(begin, begin + std::min(grain, count - begin));
                if (rec != nullptr) {
                    const double dt =
                        std::chrono::duration<double>(obs_clock::now() - t0).count();
                    busy_seconds += dt;
                    rec->metrics().observe("threadpool.block_seconds", dt);
                }
            }
            if (rec != nullptr && busy_seconds > 0.0) {
                rec->metrics().add("threadpool.busy_seconds", busy_seconds);
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) {
                error = std::current_exception();
            }
            failed.store(true, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> started;
    started.reserve(lanes - 1);
    try {
        while (started.size() + 1 < lanes) {
            started.emplace_back(run_lane);
        }
    } catch (const std::exception&) {
        // std::system_error when the system has no thread to spare,
        // std::bad_alloc when it has no memory for one: the lanes already
        // running and the calling thread finish the range.
    }
    run_lane();
    for (std::thread& lane : started) {
        lane.join();
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

}  // namespace ftc::util
