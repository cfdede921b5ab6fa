/// \file obs.hpp
/// Pipeline-wide observability: a metrics registry, an RAII span tracer and
/// a process-global recorder the instrumented stages publish through.
///
/// The paper's evaluation hinges on knowing *where* runtime goes as traces
/// grow (the quadratic dissimilarity/DBSCAN stages dominate; Table II's
/// "fails" are runtime blowups). ftc::obs makes every pipeline stage
/// measurable without changing any result:
///
///  - ftc::obs::registry — counters, gauges and fixed-bucket histograms in
///    one set of name-sorted maps under one mutex: one entry per metric
///    name, however many threads ever wrote to it.
///  - ftc::obs::span — RAII stage/sub-stage spans carrying wall time,
///    per-thread CPU time, nesting depth and named counts (segments, pairs,
///    clusters). Per-thread ordering is preserved; exporters (obs/export.hpp)
///    turn the snapshot into Chrome trace-event JSON, a Prometheus-style
///    text dump and the per-run manifest.
///  - ftc::obs::recorder + scoped_recorder — the active sink. Instrumentation
///    is *passive*: when no recorder is installed every hook reduces to one
///    atomic pointer load and a branch, and clustering output is bitwise
///    identical with or without one (tests/test_obs_determinism.cpp). A
///    recorder built with spans::drop keeps the metrics but no spans: a
///    span under it costs what it costs with no recorder installed.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ftc::obs {

class recorder;

namespace detail {
extern std::atomic<recorder*> g_recorder;
}  // namespace detail

/// The active recorder, or nullptr when observability is off. This is the
/// whole cost of the disabled path: one relaxed-consistency pointer load.
inline recorder* current() noexcept {
    return detail::g_recorder.load(std::memory_order_acquire);
}

/// Histogram bucket upper bounds in seconds; one implicit +Inf bucket
/// follows. Spanning 1 µs .. 60 s covers everything from a thread-pool
/// block to a full Netzob alignment run.
inline constexpr std::array<double, 9> kHistogramBounds = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                                           0.1,  1.0,  10.0, 60.0};
inline constexpr std::size_t kHistogramBucketCount = kHistogramBounds.size() + 1;

/// Merged view of one histogram: per-bucket counts (not cumulative; the
/// last bucket is +Inf), the exact observation count and the value sum.
struct histogram_snapshot {
    std::array<std::uint64_t, kHistogramBucketCount> buckets{};
    double sum = 0.0;
    std::uint64_t count = 0;
};

/// Copy of a registry: every map is ordered by metric name.
struct metrics_snapshot {
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, histogram_snapshot> histograms;
};

/// Metrics registry: one set of maps under one mutex.
class registry {
public:
    registry() = default;

    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    /// Add \p delta to counter \p name (creates it at zero on first use).
    void add(std::string_view name, double delta);

    /// Set gauge \p name to \p value (last write wins).
    void set(std::string_view name, double value);

    /// Record one observation of \p seconds into histogram \p name.
    void observe(std::string_view name, double seconds);

    /// Copy every metric into one name-ordered snapshot.
    metrics_snapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, double, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, histogram_snapshot, std::less<>> histograms_;
};

/// One named count attached to a span ("segments", "pairs", "clusters").
struct span_arg {
    std::string key;
    std::uint64_t value = 0;
};

/// One closed span as seen by the exporters.
struct span_record {
    std::string name;
    std::uint32_t tid = 0;    ///< recorder-local thread index (0 = first)
    std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = stage)
    std::uint64_t start_ns = 0;  ///< steady-clock ns since recorder start
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;  ///< thread CPU time, 0 where unsupported
    std::vector<span_arg> args;
};

/// All spans of a recorder, sorted by (tid, start, depth) so a parent
/// precedes its children and per-thread ordering is preserved.
struct trace_snapshot {
    std::vector<span_record> spans;
};

/// What a recorder keeps of the spans opened under it.
enum class spans {
    keep,  ///< record every span (trace and manifest outputs read them)
    drop,  ///< record none; metrics only (a long-lived daemon)
};

/// The active observability sink: one registry plus the span tracer.
class recorder {
public:
    explicit recorder(spans kept = spans::keep);
    ~recorder();

    recorder(const recorder&) = delete;
    recorder& operator=(const recorder&) = delete;

    registry& metrics() { return metrics_; }
    const registry& metrics() const { return metrics_; }

    /// Steady-clock nanoseconds since the recorder was created.
    std::uint64_t now_ns() const;

    trace_snapshot trace() const;

private:
    friend class span;

    struct thread_trace {
        mutable std::mutex mutex;
        std::uint32_t tid = 0;
        std::uint32_t depth = 0;  ///< mutated only by the owning thread
        std::vector<span_record> spans;
    };

    thread_trace& local_trace();

    const std::uint64_t epoch_;
    const bool keep_spans_;
    const std::uint64_t start_ns_;  ///< steady-clock origin
    registry metrics_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<thread_trace>> threads_;
};

/// RAII span. Constructing against a null recorder (observability off), or
/// one that drops spans, is a pointer check and a branch; nothing else
/// happens, including on destruction.
///
/// \p name must outlive the span (string literals in practice). Spans nest
/// per thread and must be closed before the scoped_recorder that owns the
/// sink goes out of scope.
class span {
public:
    explicit span(const char* name) noexcept : rec_(current()) {
        if (rec_ != nullptr && rec_->keep_spans_) {
            begin(name);
        } else {
            rec_ = nullptr;
        }
    }

    span(const span&) = delete;
    span& operator=(const span&) = delete;

    ~span() {
        if (rec_ != nullptr) {
            end();
        }
    }

    /// True when this span is recorded. Callers computing a non-trivial
    /// span count (anything beyond reading a size) must gate on this so the
    /// disabled path stays free; a metric gates on obs::current() instead,
    /// since a recorder that drops spans still counts.
    bool enabled() const noexcept { return rec_ != nullptr; }

    /// Attach a named count ("segments", "pairs", ...) exported with the
    /// span. No-op when observability is off.
    void count(const char* key, std::uint64_t value) {
        if (rec_ != nullptr) {
            args_.push_back({key, value});
        }
    }

private:
    void begin(const char* name) noexcept;
    void end() noexcept;

    recorder* rec_;
    recorder::thread_trace* buf_ = nullptr;
    const char* name_ = nullptr;
    std::uint64_t start_ns_ = 0;
    std::uint64_t cpu_start_ns_ = 0;
    std::vector<span_arg> args_;
};

/// Install a recorder as the process-global sink for the current scope;
/// restores the previously installed recorder (usually none) on exit.
class scoped_recorder {
public:
    explicit scoped_recorder(spans kept = spans::keep);
    ~scoped_recorder();

    scoped_recorder(const scoped_recorder&) = delete;
    scoped_recorder& operator=(const scoped_recorder&) = delete;

    recorder& rec() { return rec_; }
    const recorder& rec() const { return rec_; }

private:
    recorder rec_;
    recorder* previous_ = nullptr;
};

/// Convenience hooks used by the instrumented stages: one pointer check
/// when observability is off.
inline void counter_add(const char* name, double delta) {
    if (recorder* r = current()) {
        r->metrics().add(name, delta);
    }
}

inline void gauge_set(const char* name, double value) {
    if (recorder* r = current()) {
        r->metrics().set(name, value);
    }
}

inline void observe(const char* name, double seconds) {
    if (recorder* r = current()) {
        r->metrics().observe(name, seconds);
    }
}

/// Peak resident set size of the process in bytes (0 where unsupported).
std::uint64_t peak_rss_bytes();

}  // namespace ftc::obs
