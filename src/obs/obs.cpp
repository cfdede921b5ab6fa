#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#include <sys/resource.h>
#endif

namespace ftc::obs {

namespace detail {
std::atomic<recorder*> g_recorder{nullptr};
}  // namespace detail

namespace {

/// Monotonically increasing recorder id. A recorder's epoch keys the
/// thread-local trace cache below: a cached trace buffer is only reused
/// while its epoch matches the recorder asking, so a pointer into a
/// destroyed recorder can never be dereferenced (epochs are never
/// reissued).
std::atomic<std::uint64_t> g_epoch{1};

struct tl_trace_cache {
    std::uint64_t epoch = 0;
    void* buffer = nullptr;
};
thread_local tl_trace_cache t_trace;

std::uint64_t steady_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

std::size_t bucket_index(double seconds) {
    std::size_t i = 0;
    while (i < kHistogramBounds.size() && seconds > kHistogramBounds[i]) {
        ++i;
    }
    return i;  // kHistogramBounds.size() is the +Inf bucket
}

}  // namespace

void registry::add(std::string_view name, double delta) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string{name}, 0.0).first;
    }
    it->second += delta;
}

void registry::set(std::string_view name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        gauges_.emplace(std::string{name}, value);
    } else {
        it->second = value;
    }
}

void registry::observe(std::string_view name, double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string{name}, histogram_snapshot{}).first;
    }
    histogram_snapshot& h = it->second;
    ++h.buckets[bucket_index(seconds)];
    h.sum += seconds;
    ++h.count;
}

metrics_snapshot registry::snapshot() const {
    metrics_snapshot out;
    const std::lock_guard<std::mutex> lock(mutex_);
    out.counters.insert(counters_.begin(), counters_.end());
    out.gauges.insert(gauges_.begin(), gauges_.end());
    out.histograms.insert(histograms_.begin(), histograms_.end());
    return out;
}

recorder::recorder(spans kept)
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed)),
      keep_spans_(kept == spans::keep),
      start_ns_(steady_now_ns()) {}

recorder::~recorder() = default;

std::uint64_t recorder::now_ns() const {
    return steady_now_ns() - start_ns_;
}

recorder::thread_trace& recorder::local_trace() {
    if (t_trace.epoch != epoch_) {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto buf = std::make_unique<thread_trace>();
        buf->tid = static_cast<std::uint32_t>(threads_.size());
        threads_.push_back(std::move(buf));
        t_trace.epoch = epoch_;
        t_trace.buffer = threads_.back().get();
    }
    return *static_cast<thread_trace*>(t_trace.buffer);
}

trace_snapshot recorder::trace() const {
    trace_snapshot out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<thread_trace>& t : threads_) {
        const std::lock_guard<std::mutex> buf_lock(t->mutex);
        out.spans.insert(out.spans.end(), t->spans.begin(), t->spans.end());
    }
    std::stable_sort(out.spans.begin(), out.spans.end(),
                     [](const span_record& a, const span_record& b) {
                         if (a.tid != b.tid) {
                             return a.tid < b.tid;
                         }
                         if (a.start_ns != b.start_ns) {
                             return a.start_ns < b.start_ns;
                         }
                         return a.depth < b.depth;
                     });
    return out;
}

void span::begin(const char* name) noexcept {
    buf_ = &rec_->local_trace();
    name_ = name;
    ++buf_->depth;
    start_ns_ = rec_->now_ns();
    cpu_start_ns_ = thread_cpu_ns();
}

void span::end() noexcept {
    const std::uint64_t wall = rec_->now_ns() - start_ns_;
    const std::uint64_t cpu_now = thread_cpu_ns();
    span_record record;
    record.name = name_;
    record.tid = buf_->tid;
    record.depth = --buf_->depth;
    record.start_ns = start_ns_;
    record.wall_ns = wall;
    record.cpu_ns = cpu_now >= cpu_start_ns_ ? cpu_now - cpu_start_ns_ : 0;
    record.args = std::move(args_);
    const std::lock_guard<std::mutex> lock(buf_->mutex);
    buf_->spans.push_back(std::move(record));
}

scoped_recorder::scoped_recorder(spans kept) : rec_(kept) {
    previous_ = detail::g_recorder.exchange(&rec_, std::memory_order_acq_rel);
}

scoped_recorder::~scoped_recorder() {
    detail::g_recorder.store(previous_, std::memory_order_release);
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
    }
#endif
    return 0;
}

}  // namespace ftc::obs
