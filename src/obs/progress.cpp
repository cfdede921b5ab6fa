#include "obs/progress.hpp"

namespace ftc::obs {

namespace {

// Seqlock over the (stage, total) pair: progress_stage() bumps g_seq to an
// odd value, writes, then bumps to the next even value. done is excluded
// from the lock on purpose — it only ever grows within a stage, so a reader
// pairing a stable (stage, seq, total) with any concurrent done value still
// reports a valid monotonic view of that stage.
std::atomic<std::uint64_t> g_seq{0};
std::atomic<const char*> g_stage{nullptr};
std::atomic<std::uint64_t> g_total{0};
std::atomic<std::uint64_t> g_done{0};

}  // namespace

void progress_stage(const char* stage, std::uint64_t total) noexcept {
    g_seq.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
    g_stage.store(stage, std::memory_order_relaxed);
    g_total.store(total, std::memory_order_relaxed);
    g_done.store(0, std::memory_order_relaxed);
    g_seq.fetch_add(1, std::memory_order_acq_rel);  // even: stable
}

void progress_add(std::uint64_t delta) noexcept {
    g_done.fetch_add(delta, std::memory_order_relaxed);
}

progress_snapshot progress_now() noexcept {
    progress_snapshot out;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const std::uint64_t before = g_seq.load(std::memory_order_acquire);
        if (before % 2 != 0) {
            continue;  // a stage switch is mid-write
        }
        out.stage = g_stage.load(std::memory_order_relaxed);
        out.total = g_total.load(std::memory_order_relaxed);
        out.done = g_done.load(std::memory_order_relaxed);
        if (g_seq.load(std::memory_order_acquire) == before) {
            out.stage_seq = before / 2;
            return out;
        }
    }
    // Writers are storming (only possible in adversarial tests); report
    // "no stage" rather than a torn triple.
    return {};
}

}  // namespace ftc::obs
