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

/// Monotonically increasing id shared by registries and recorders. An
/// instance's epoch keys the thread-local caches below: a cached shard or
/// trace buffer is only reused while its epoch matches the instance asking,
/// so a pointer into a destroyed instance can never be dereferenced (epochs
/// are never reissued).
std::atomic<std::uint64_t> g_epoch{1};

struct tl_metrics_cache {
    std::uint64_t epoch = 0;
    void* shard = nullptr;
};
struct tl_trace_cache {
    std::uint64_t epoch = 0;
    void* buffer = nullptr;
};
thread_local tl_metrics_cache t_metrics;
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

registry::registry() : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed)) {}

registry::~registry() = default;

registry::shard& registry::local_shard() {
    if (t_metrics.epoch != epoch_) {
        const std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::make_unique<shard>());
        t_metrics.epoch = epoch_;
        t_metrics.shard = shards_.back().get();
    }
    return *static_cast<shard*>(t_metrics.shard);
}

void registry::add(std::string_view name, double delta) {
    shard& s = local_shard();
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.counters.find(name);
    if (it == s.counters.end()) {
        it = s.counters.emplace(std::string{name}, 0.0).first;
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
    shard& s = local_shard();
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.histograms.find(name);
    if (it == s.histograms.end()) {
        it = s.histograms.emplace(std::string{name}, histogram_cell{}).first;
    }
    histogram_cell& cell = it->second;
    ++cell.buckets[bucket_index(seconds)];
    cell.sum += seconds;
    ++cell.count;
}

metrics_snapshot registry::snapshot() const {
    metrics_snapshot out;
    const std::lock_guard<std::mutex> lock(mutex_);
    out.gauges.insert(gauges_.begin(), gauges_.end());
    // Fold shards in creation order; the output maps are name-ordered, so
    // the merged view is identical no matter which thread asks.
    for (const std::unique_ptr<shard>& s : shards_) {
        const std::lock_guard<std::mutex> shard_lock(s->mutex);
        for (const auto& [name, value] : s->counters) {
            out.counters[name] += value;
        }
        for (const auto& [name, cell] : s->histograms) {
            histogram_snapshot& h = out.histograms[name];
            for (std::size_t b = 0; b < kHistogramBucketCount; ++b) {
                h.buckets[b] += cell.buckets[b];
            }
            h.sum += cell.sum;
            h.count += cell.count;
        }
    }
    return out;
}

recorder::recorder()
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed)), start_ns_(steady_now_ns()) {}

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

scoped_recorder::scoped_recorder() {
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
