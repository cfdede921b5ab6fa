#include "obs/sampler.hpp"

#include <algorithm>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "util/error.hpp"

namespace ftc::obs {

namespace {

/// "1234" -> "1.2k", "1200000" -> "1.2M" — progress-line density, not
/// precision (the NDJSON stream carries the exact numbers).
std::string human_rate(double per_second) {
    char buf[32];
    if (per_second >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.1fM", per_second / 1e6);
    } else if (per_second >= 1e3) {
        std::snprintf(buf, sizeof buf, "%.1fk", per_second / 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%.1f", per_second);
    }
    return buf;
}

std::string human_eta(double seconds) {
    char buf[32];
    if (seconds >= 3600) {
        std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600);
    } else if (seconds >= 60) {
        std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60);
    } else {
        std::snprintf(buf, sizeof buf, "%.0fs", seconds);
    }
    return buf;
}

bool stream_is_tty(std::FILE* stream) {
#if defined(__unix__) || defined(__APPLE__)
    return stream != nullptr && isatty(fileno(stream)) == 1;
#else
    (void)stream;
    return false;
#endif
}

}  // namespace

std::string render_progress_line(const progress_snapshot& p, const progress_estimate& est,
                                 bool tty) {
    std::string line;
    if (tty) {
        line += "\r\x1b[K";  // overwrite the previous line in place
    }
    line += "[";
    line += p.stage != nullptr ? p.stage : "idle";
    line += "] ";
    line += std::to_string(p.done);
    if (p.total > 0) {
        line += '/';
        line += std::to_string(p.total);
        const double pct =
            100.0 * static_cast<double>(std::min(p.done, p.total)) /
            static_cast<double>(p.total);
        char buf[16];
        std::snprintf(buf, sizeof buf, " %3.0f%%", pct);
        line += buf;
    }
    if (est.rate_per_second > 0.0) {
        line += ' ';
        line += human_rate(est.rate_per_second);
        line += "/s";
    }
    if (est.eta_seconds >= 0.0) {
        line += " eta " + human_eta(est.eta_seconds);
    }
    if (!tty) {
        line += "\n";
    }
    return line;
}

sampler::sampler(const recorder* rec, sampler_options options)
    : rec_(rec), options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
    options_.interval = std::max(options_.interval, std::chrono::milliseconds{10});
    if (options_.progress_stream == nullptr) {
        options_.progress_stream = stderr;
    }
    if (options_.force_tty) {
        tty_ = true;
    } else if (options_.force_plain) {
        tty_ = false;
    } else {
        tty_ = stream_is_tty(options_.progress_stream);
    }
    if (!options_.telemetry_path.empty()) {
        out_.open(options_.telemetry_path, std::ios::binary | std::ios::trunc);
        if (!out_) {
            throw ftc::error("sampler: cannot open telemetry output " +
                             options_.telemetry_path);
        }
    }
    thread_ = std::thread([this] { loop(); });
}

sampler::~sampler() {
    stop();
}

void sampler::set_status(std::string status) {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_ = std::move(status);
}

std::uint64_t sampler::samples_emitted() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

void sampler::stop() noexcept {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_) {
            return;
        }
        stopped_ = true;
        stop_requested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
    }
    // The thread is gone: emitting the final sample from here is
    // single-threaded by construction. ofstream does not throw by default,
    // so a full disk cannot mask the error this unwind may be carrying.
    emit_sample(true);
    if (progress_line_open_) {
        std::fputs("\n", options_.progress_stream);
        std::fflush(options_.progress_stream);
        progress_line_open_ = false;
    }
    if (out_.is_open()) {
        out_.flush();
        out_.close();
    }
}

void sampler::loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_requested_) {
        cv_.wait_for(lock, options_.interval, [this] { return stop_requested_; });
        if (stop_requested_) {
            return;
        }
        lock.unlock();
        emit_sample(false);
        lock.lock();
        ++samples_;
    }
}

void sampler::update_estimate(const progress_snapshot& p, double t_seconds) {
    if (p.stage == nullptr || p.stage_seq != last_stage_seq_ || !have_last_ ||
        p.done < last_done_) {
        // New stage (or first sight of one): no rate yet.
        estimate_ = {};
        have_last_ = p.stage != nullptr;
    } else {
        const double dt = t_seconds - last_t_seconds_;
        if (dt > 0.0) {
            const double inst =
                static_cast<double>(p.done - last_done_) / dt;
            // EMA over samples: jumpy per-tick rates (NUMA, page faults,
            // pool scheduling) still yield a stable ETA.
            constexpr double kAlpha = 0.4;
            estimate_.rate_per_second = estimate_.rate_per_second <= 0.0
                                            ? inst
                                            : kAlpha * inst +
                                                  (1.0 - kAlpha) * estimate_.rate_per_second;
        }
    }
    estimate_.eta_seconds = -1.0;
    if (p.stage != nullptr && p.total > 0 && p.done <= p.total &&
        estimate_.rate_per_second > 0.0) {
        estimate_.eta_seconds =
            static_cast<double>(p.total - p.done) / estimate_.rate_per_second;
    }
    last_stage_seq_ = p.stage_seq;
    last_done_ = p.done;
    last_t_seconds_ = t_seconds;
}

void sampler::render_progress(const progress_snapshot& p) {
    if (!options_.progress) {
        return;
    }
    if (tty_) {
        // Overwrite in place every sample; stop() closes the line.
        std::fputs(render_progress_line(p, estimate_, true).c_str(),
                   options_.progress_stream);
        std::fflush(options_.progress_stream);
        progress_line_open_ = true;
        return;
    }
    // Plain stream (CI logs, pipes): one full line per stage change or
    // whole-percent step, at most one every 2 s otherwise.
    const int percent =
        p.total > 0 ? static_cast<int>(100 * std::min(p.done, p.total) / p.total) : -1;
    const bool changed = p.stage != last_stage_ || percent != last_percent_;
    if (p.stage == nullptr || (!changed && last_t_seconds_ - last_print_t_ < 2.0)) {
        return;
    }
    last_stage_ = p.stage;
    last_percent_ = percent;
    last_print_t_ = last_t_seconds_;
    std::fputs(("progress: " + render_progress_line(p, estimate_, false)).c_str(),
               options_.progress_stream);
    std::fflush(options_.progress_stream);
}

void sampler::emit_sample(bool final) {
    const double t_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    const progress_snapshot p = progress_now();
    update_estimate(p, t_seconds);
    render_progress(p);
    if (!out_.is_open()) {
        return;
    }

    json_writer w;
    w.begin_object();
    w.key("schema");
    w.value("ftc.telemetry.v1");
    w.key("seq");
    w.value(seq_++);
    w.key("t_seconds");
    w.value(t_seconds);
    w.key("final");
    w.value(final);
    w.key("status");
    if (final) {
        const std::lock_guard<std::mutex> lock(mutex_);
        w.value(std::string_view{status_});
    } else {
        w.value("running");
    }

    if (p.stage != nullptr) {
        w.key("progress");
        w.begin_object();
        w.key("stage");
        w.value(std::string_view{p.stage});
        w.key("stage_seq");
        w.value(p.stage_seq);
        w.key("done");
        w.value(p.done);
        w.key("total");
        w.value(p.total);
        if (estimate_.rate_per_second > 0.0) {
            w.key("rate_per_second");
            w.value(estimate_.rate_per_second);
        }
        if (estimate_.eta_seconds >= 0.0) {
            w.key("eta_seconds");
            w.value(estimate_.eta_seconds);
        }
        w.end_object();
    }

    if (final) {
        // The final status sample accounts for every line the stream
        // refused, so a consumer knows its series is incomplete.
        w.key("write_errors");
        w.value(write_errors_.load(std::memory_order_relaxed));
    }

    w.key("mem");
    w.begin_object();
    w.key("tracked_bytes");
    w.value(mem::current_bytes());
    w.key("tracked_peak_bytes");
    w.value(mem::peak_bytes());
    w.key("rss_peak_bytes");
    w.value(peak_rss_bytes());
    w.end_object();

    if (rec_ != nullptr) {
        const metrics_snapshot metrics = rec_->metrics().snapshot();
        w.key("counters");
        w.begin_object();
        for (const auto& [name, value] : metrics.counters) {
            w.key(name);
            w.value(value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (const auto& [name, value] : metrics.gauges) {
            w.key(name);
            w.value(value);
        }
        w.end_object();
    }
    w.end_object();

    out_ << w.take() << '\n';
    out_.flush();  // every line is durable: a killed run keeps its series
    if (!out_) {
        // The line did not make it (disk full, target vanished). Count the
        // drop — invisible telemetry loss is worse than a short series —
        // and clear the stream state so later samples (above all the final
        // one) still get their chance once the condition passes.
        write_errors_.fetch_add(1, std::memory_order_relaxed);
        counter_add("telemetry.write_errors", 1.0);
        out_.clear();
    }
}

}  // namespace ftc::obs
