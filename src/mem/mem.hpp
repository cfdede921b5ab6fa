/// \file mem.hpp
/// Tracked allocation accounting and the memory governor (ftc::mem).
///
/// The pipeline's dominant data structures — the dense dissimilarity upper
/// triangle above all — are quadratic in the number of unique segments, and
/// until now they were the one resource the run neither accounted for nor
/// survived running out of: an oversized trace ended in an OOM kill instead
/// of the partial-progress exit the deadline/segment/byte budgets already
/// guarantee. ftc::mem closes that gap with three pieces:
///
///  - **Always-on accounting.** Every tracked allocation (containers using
///    mem::tracking_allocator, plus explicit mem::charge scopes for storage
///    the pipeline sizes itself) updates process-global current/peak byte
///    counters. The disabled-path cost is a handful of relaxed atomics per
///    *container allocation* — never per element — so tracking stays on
///    unconditionally and benches report peak_bytes for free.
///
///  - **A scoped governor** carrying the `max_memory` budget dimension.
///    While a governor is installed, any tracked charge that would push the
///    tracked footprint past the limit throws ftc::memory_budget_exceeded_error
///    (a budget_exceeded_error, so every partial-progress catch site already
///    handles it), and stages can *project* a footprint with would_exceed()
///    before committing to it — that projection is what drives the
///    degradation ladder in core::analyze (weighted dedup, then the sparse
///    engine in place of the dense matrix, then a typed error; DESIGN.md
///    §11) and lets optional buffers (DBSCAN bit rows, checkpoint
///    snapshots) step aside instead of failing the run.
///
///  - **Deterministic fault injection.** A process-global fault plan makes
///    the Nth tracked charge — or every charge past a byte high-water mark —
///    fail with the same typed error, so tests can prove that every stage
///    either completes, degrades, or exits cleanly from any allocation site
///    (ftc::testing::alloc_fault_injector is the RAII front end).
///
/// Live gauges `mem.tracked_bytes` / `mem.tracked_bytes_peak` and the
/// counter `mem.tracked_allocs_total` are published through ftc::obs;
/// gauge publication is throttled to peak growth steps so the per-charge
/// obs cost stays bounded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/error.hpp"

namespace ftc::mem {

// ---------------------------------------------------------------------------
// Always-on accounting
// ---------------------------------------------------------------------------

/// Bytes currently held by tracked allocations/charges.
std::uint64_t current_bytes() noexcept;

/// High-water mark of current_bytes() since process start or reset_peak().
std::uint64_t peak_bytes() noexcept;

/// Number of tracked charge events so far (allocations + explicit charges).
std::uint64_t tracked_allocations() noexcept;

/// Reset the peak to the current footprint (benches isolate per-run peaks).
void reset_peak() noexcept;

/// Force-publish the mem.* gauges into the active ftc::obs registry (the
/// throttled per-charge path publishes only on peak growth; stage
/// boundaries call this so manifests carry exact final values).
void publish_gauges() noexcept;

// ---------------------------------------------------------------------------
// Fault injection (see ftc::testing::alloc_fault_injector)
// ---------------------------------------------------------------------------

/// Deterministic allocation-fault plan; zero fields mean "disabled".
struct fault_plan {
    /// Fail the Nth tracked charge after the plan is installed (1-based).
    std::uint64_t fail_nth = 0;
    /// Fail every tracked charge that would push current_bytes() above
    /// this mark — a simulated hard heap ceiling.
    std::uint64_t fail_above_bytes = 0;

    bool armed() const noexcept { return fail_nth > 0 || fail_above_bytes > 0; }
};

/// Install (or, with a default-constructed plan, clear) the process-global
/// fault plan. The fail_nth countdown restarts at every install.
void set_fault_plan(const fault_plan& plan) noexcept;

/// The currently installed plan (all-zero when none).
fault_plan get_fault_plan() noexcept;

// ---------------------------------------------------------------------------
// The governor: scoped max_memory budget
// ---------------------------------------------------------------------------

/// Scoped memory budget. Installing a governor makes every tracked charge
/// check the limit; uninstalling (destruction) restores the previous
/// governor (they nest, innermost wins). A limit of 0 keeps charges
/// unchecked but still lets fault plans and accounting apply — and marks
/// memory governance as "on" for reporting purposes.
///
/// The governor stack is *per thread*: install and uninstall must happen
/// on the same thread, and only charges made on that thread are governed.
/// This is what lets the serve daemon run concurrent sessions, each on its
/// own worker thread under its own nested governor, without the install/
/// restore pairs interleaving. The tracked charge sites are coarse
/// coordinator-thread allocations, so a session's governor sees all of
/// that session's tracked footprint; a process-wide ceiling across
/// sessions is enforced by admission control, not by a shared governor.
class governor {
public:
    explicit governor(std::uint64_t limit_bytes) noexcept;
    ~governor();

    governor(const governor&) = delete;
    governor& operator=(const governor&) = delete;

    std::uint64_t limit() const noexcept { return limit_; }

    /// Would charging \p extra bytes cross this governor's limit?
    /// Always false for an unlimited (limit 0) governor.
    bool would_exceed(std::uint64_t extra) const noexcept;

    /// The innermost installed governor, or nullptr.
    static governor* active() noexcept;

private:
    std::uint64_t limit_ = 0;
    governor* previous_ = nullptr;
};

/// Projection against the active governor; false when none is installed.
inline bool would_exceed(std::uint64_t extra) noexcept {
    governor* g = governor::active();
    return g != nullptr && g->would_exceed(extra);
}

// ---------------------------------------------------------------------------
// Charge/release primitives
// ---------------------------------------------------------------------------

/// Record a tracked charge of \p bytes. Consults the fault plan and the
/// active governor's limit *before* touching the counters; throws
/// ftc::memory_budget_exceeded_error naming \p what when either trips, in
/// which case nothing was charged.
void on_charge(std::uint64_t bytes, const char* what);

/// Release \p bytes of a previous charge. Saturates at zero (a container
/// allocated under one governor scope may be destroyed under another), and
/// never throws — release sits on destructor paths.
void on_release(std::uint64_t bytes) noexcept;

/// RAII explicit charge for storage whose container type the tracker does
/// not own (occurrence lists, k-NN curves held as plain std::vector).
/// Charges on construction (which may throw, leaving a disarmed charge
/// behind only if it succeeded), releases on destruction. Copying
/// re-charges the same amount — so a struct carrying a charge stays
/// copyable — and moving transfers the obligation.
class charge {
public:
    charge() = default;

    charge(std::uint64_t bytes, const char* what) : bytes_(bytes) {
        on_charge(bytes_, what);
        armed_ = true;
    }

    charge(const charge& other) : bytes_(other.bytes_) {
        if (other.armed_) {
            on_charge(bytes_, "mem.charge.copy");
            armed_ = true;
        }
    }

    charge(charge&& other) noexcept : bytes_(other.bytes_), armed_(other.armed_) {
        other.armed_ = false;
        other.bytes_ = 0;
    }

    charge& operator=(charge other) noexcept {
        swap(other);
        return *this;
    }

    ~charge() { release(); }

    void swap(charge& other) noexcept {
        std::swap(bytes_, other.bytes_);
        std::swap(armed_, other.armed_);
    }

    /// Grow or shrink the charge to \p bytes in place. Only the difference
    /// is charged or released, so the tracked total never holds the old
    /// and the new amount at once (assigning a fresh charge would). A
    /// growth that trips the budget throws and leaves the charge as it was;
    /// a shrink never throws.
    void resize(std::uint64_t bytes, const char* what) {
        const std::uint64_t held = this->bytes();
        if (bytes > held) {
            on_charge(bytes - held, what);
        } else {
            on_release(held - bytes);
        }
        bytes_ = bytes;
        armed_ = true;
    }

    /// Release early (idempotent).
    void release() noexcept {
        if (armed_) {
            on_release(bytes_);
            armed_ = false;
            bytes_ = 0;
        }
    }

    std::uint64_t bytes() const noexcept { return armed_ ? bytes_ : 0; }

private:
    std::uint64_t bytes_ = 0;
    bool armed_ = false;
};

// ---------------------------------------------------------------------------
// Tracking allocator
// ---------------------------------------------------------------------------

/// Standard-allocator shim charging the global accounting (and therefore
/// the active governor and fault plan) around every block. Stateless: all
/// instances are interchangeable, so containers move/swap freely across
/// governor scopes — release saturation keeps the books sane either way.
template <typename T>
struct tracking_allocator {
    using value_type = T;

    tracking_allocator() noexcept = default;
    template <typename U>
    tracking_allocator(const tracking_allocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
        const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
        on_charge(bytes, "mem.alloc");
        try {
            return static_cast<T*>(::operator new(static_cast<std::size_t>(bytes)));
        } catch (...) {
            on_release(bytes);
            throw;
        }
    }

    void deallocate(T* p, std::size_t n) noexcept {
        // Released before the delete: GCC 12 reports the container's size
        // arithmetic as a use after free when it sinks it past the delete.
        on_release(static_cast<std::uint64_t>(n) * sizeof(T));
        ::operator delete(p);
    }

    template <typename U>
    bool operator==(const tracking_allocator<U>&) const noexcept {
        return true;
    }
};

/// std::vector whose backing store is tracked — the type of the matrix
/// storage and other footprint-dominant buffers.
template <typename T>
using vector = std::vector<T, tracking_allocator<T>>;

}  // namespace ftc::mem
