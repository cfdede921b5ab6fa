/// \file kernel.hpp
/// The optimized sliding-Canberra kernel (DESIGN.md §9).
///
/// The pairwise sliding-Canberra dissimilarity dominates pipeline wall time:
/// for every (segment, segment) pair the reference code (canberra.cpp) runs
/// an O(m·(n−m+1)) sliding loop with one floating-point divide per byte.
/// This layer removes the divides and most of the window work without
/// changing a single output bit:
///
///  - **Term table.** Byte values are 8-bit, so every per-byte term
///    |x−y|/(x+y) is one of 256×256 doubles. They are precomputed once into
///    a 512 KB table (term_table()); each term is produced by exactly the
///    arithmetic the reference uses and the accumulation order is
///    unchanged, so all sums are bitwise identical to the reference.
///  - **Early-exit pruning.** Sliding windows track the best raw window sum
///    seen so far and abandon a window as soon as its partial sum exceeds
///    that bound (terms are non-negative, so the window cannot become the
///    minimum). The winning window is always summed in full, so d_min is
///    bitwise unchanged (exactness argument in DESIGN.md §9).
///  - **Batching.** A single pair's sum is a strictly in-order add chain —
///    latency-bound, not throughput-bound — so the admissible parallelism
///    is across *independent* sums: the sliding loop computes eight (then
///    four) consecutive windows at once and the batch entry points below
///    compute up to eight pairs at once, every individual chain still in
///    reference element order. batcher is the one place that groups a
///    caller's pairs into those batches.
///
/// There is one path, portable C++ on every build, with no build option and
/// no runtime dispatch: a vector-gather variant was measured slower on both
/// benchmark workloads and removed (DESIGN.md §9).
///
/// Complexity per pair (m = shorter length, n = longer): equal path
/// O(m) adds, no divides; sliding path O(m·(n−m+1)) worst case, typically
/// far less because of pruning; O(1) extra space beyond the shared table.
/// Results are in [0, 1] and bitwise equal to
/// ftc::dissim::sliding_canberra_dissimilarity
/// (tests/test_dissim_kernel.cpp proves this property-wise and end to end).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/byteio.hpp"

namespace ftc::dissim::kernel {

/// The kernel's name in run provenance: the `kernel_backend` value of
/// `ftclust version --json` and of every BENCH_*.json `meta`, which
/// perfbench reads.
inline constexpr const char* kName = "lut";

/// Kernel work counters, accumulated locally by callers (one atomic-free
/// struct per worker block) and published once per block through
/// publish() — never updated per byte.
struct stats {
    std::uint64_t invocations = 0;      ///< kernel entry calls (pairs)
    std::uint64_t equal_fast_path = 0;  ///< pairs taking the equal-length path
    std::uint64_t windows_total = 0;    ///< sliding windows started
    std::uint64_t windows_pruned = 0;   ///< windows abandoned by the bound
};

/// Add \p st to the `dissim.kernel.*` counters of the active ftc::obs
/// recorder (no-op without one). The matrix build and the sparse engine
/// publish through here, so dashboards see one kernel workload whichever
/// engine ran.
void publish(const stats& st);

/// The shared 256×256 row-major term table: term_table()[x*256 + y] is the
/// double |x−y|/(x+y) (0.0 when x = y = 0), bitwise equal to the term the
/// reference loop computes. Built on first use, immutable afterwards.
const double* term_table();

/// Normalized Canberra dissimilarity of two equal-length non-empty byte
/// vectors, in [0, 1]. O(m) adds.
/// Preconditions as ftc::dissim::canberra_dissimilarity.
double equal_dissimilarity(byte_view x, byte_view y, stats* st = nullptr);

/// Lane count of equal_dissimilarity_batch. Eight independent in-order add
/// chains saturate the FP pipeline; a single pair's chain is latency-bound.
inline constexpr std::size_t kEqualBatch = 8;

/// Computes out[k] = equal_dissimilarity(x, ys[k]) for k < count
/// (1 ≤ count ≤ kEqualBatch; every ys[k] has x's length). Bitwise identical
/// to count single calls — each pair keeps its own strictly in-order sum;
/// the batch only lets the independent chains overlap in the pipeline
/// (DESIGN.md §9).
void equal_dissimilarity_batch(byte_view x, const byte_view* ys, std::size_t count,
                               double* out, stats* st = nullptr);

/// Sliding Canberra dissimilarity of two non-empty byte vectors, in
/// [0, 1]; falls through to the equal-length path when the lengths match.
/// O(m·(n−m+1)) worst case, pruned in practice.
/// Bitwise equal to ftc::dissim::sliding_canberra_dissimilarity.
double sliding_dissimilarity(byte_view a, byte_view b, stats* st = nullptr);

/// Lane count of sliding_dissimilarity_batch (call-overhead amortization,
/// not a numeric contract — any count up to this is accepted).
inline constexpr std::size_t kSlideBatch = 8;

/// Computes out[k] = sliding_dissimilarity(a, bs[k]) for k < count
/// (1 ≤ count ≤ kSlideBatch), bitwise identical to count single calls.
void sliding_dissimilarity_batch(byte_view a, const byte_view* bs, std::size_t count,
                                 double* out, stats* st = nullptr);

/// Groups one row value's partners into kernel batches — the only place
/// that decides how pairs are batched. Partners queue by path (equal
/// length or sliding); a queue that reaches its batch width runs at once,
/// and flush() runs whatever is left. Each pair's value is the single-call
/// kernel result narrowed to f32 — exactly what a matrix cell stores — so
/// the batch composition never changes a value; callers choose only the
/// visit order and where to flush (a matrix row end, a sparse bucket end).
class batcher {
public:
    /// Batches pairs of \p a, counting kernel work into \p st when non-null.
    batcher(byte_view a, stats* st) : a_(a), st_(st) {}

    /// Queue partner \p b under \p key. When b's queue fills, its batch runs
    /// and \p sink(key, d) receives every queued pair, in queue order.
    template <typename Sink>
    void add(std::size_t key, byte_view b, Sink&& sink) {
        queue& q = b.size() == a_.size() ? equal_ : slide_;
        q.keys[q.count] = key;
        q.views[q.count] = b;
        if (++q.count == kEqualBatch) {
            run(q, sink);
        }
    }

    /// Run both partial queues (equal-length first) through \p sink,
    /// leaving nothing pending.
    template <typename Sink>
    void flush(Sink&& sink) {
        run(equal_, sink);
        run(slide_, sink);
    }

private:
    static_assert(kEqualBatch == kSlideBatch);

    struct queue {
        std::size_t keys[kEqualBatch];
        byte_view views[kEqualBatch];
        std::size_t count = 0;
    };

    template <typename Sink>
    void run(queue& q, Sink& sink) {
        if (q.count == 0) {
            return;
        }
        double out[kEqualBatch];
        if (&q == &equal_) {
            equal_dissimilarity_batch(a_, q.views, q.count, out, st_);
        } else {
            sliding_dissimilarity_batch(a_, q.views, q.count, out, st_);
        }
        for (std::size_t k = 0; k < q.count; ++k) {
            sink(q.keys[k], static_cast<float>(out[k]));
        }
        q.count = 0;
    }

    byte_view a_;
    stats* st_;
    queue equal_;
    queue slide_;
};

}  // namespace ftc::dissim::kernel
