#include "serve/session.hpp"

#include <utility>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace ftc::serve {

std::string_view job_state_name(job_state state) {
    switch (state) {
        case job_state::queued:
            return "queued";
        case job_state::running:
            return "running";
        case job_state::done:
            return "done";
        case job_state::failed:
            return "failed";
    }
    return "unknown";
}

session_manager::session_manager(spool& sp, serve_options options)
    : spool_(sp), options_(std::move(options)) {
    if (options_.sessions == 0) {
        options_.sessions = 1;
    }
    if (options_.queue_depth == 0) {
        options_.queue_depth = 1;
    }
}

session_manager::~session_manager() { stop(); }

std::size_t session_manager::recover() {
    std::size_t replayed = 0;
    for (const spool_entry& entry : spool_.entries()) {
        job_status status;
        status.id = entry.id;
        status.recovered = true;
        status.error = entry.error;
        switch (entry.phase) {
            case job_phase::done:
                status.state = job_state::done;
                break;
            case job_phase::failed:
                status.state = job_state::failed;
                break;
            case job_phase::accepted: {
                status.state = job_state::queued;
                const std::lock_guard<std::mutex> lock(queue_mutex_);
                queue_.push_back({entry.id, entry.payload_digest, true});
                ++replayed;
                break;
            }
        }
        set_status(status);
    }
    if (replayed > 0) {
        obs::counter_add("serve.jobs_recovered_total", static_cast<double>(replayed));
        queue_cv_.notify_all();
    }
    return replayed;
}

void session_manager::start() {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (started_ || stopping_) {
        return;
    }
    started_ = true;
    workers_.reserve(options_.sessions);
    for (std::size_t i = 0; i < options_.sessions; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

void session_manager::stop() noexcept {
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_) {
            return;
        }
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    workers_.clear();
}

admission session_manager::submit(byte_view payload) {
    admission result;
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_ || !started_) {
            result.reason = "stopping";
        } else if (queue_.size() >= options_.queue_depth) {
            result.reason = "queue-full";
        }
    }
    // Project the payload's working set against the process ceiling while
    // *not* holding the queue lock (mem counters are atomics). The factor
    // is deliberately coarse: ingest + segmentation + occurrence lists of
    // a capture run a small multiple of its size; a precise projection is
    // the governor's job once the session runs — this check only keeps
    // admissions from overcommitting what the governor would refuse later.
    if (result.reason.empty() && options_.max_memory > 0 &&
        mem::current_bytes() + 4 * static_cast<std::uint64_t>(payload.size()) >
            options_.max_memory) {
        result.reason = "memory-pressure";
    }
    if (!result.reason.empty()) {
        obs::counter_add("serve.jobs_shed_total", 1.0);
        return result;
    }

    // Journal first, acknowledge second: once append() returns, the job
    // survives kill -9 even if the enqueue below never happens (recover()
    // picks it up).
    const std::uint64_t digest = obs::fnv1a64(payload.data(), payload.size());
    const std::uint64_t id = spool_.append(payload);
    job_status status;
    status.id = id;
    status.state = job_state::queued;
    set_status(status);
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_.push_back({id, digest, false});
        obs::gauge_set("serve.queue_depth", static_cast<double>(queue_.size()));
    }
    queue_cv_.notify_one();
    obs::counter_add("serve.jobs_submitted_total", 1.0);
    result.accepted = true;
    result.id = id;
    return result;
}

std::optional<job_status> session_manager::status(std::uint64_t id) const {
    const std::lock_guard<std::mutex> lock(status_mutex_);
    const auto it = status_.find(id);
    if (it == status_.end()) {
        return std::nullopt;
    }
    return it->second;
}

int session_manager::pressure_level() const {
    {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (options_.queue_depth > 1 && queue_.size() * 2 >= options_.queue_depth) {
            return 1;
        }
    }
    if (options_.max_memory > 0 &&
        mem::current_bytes() * 4 >= static_cast<std::uint64_t>(options_.max_memory) * 3) {
        return 1;
    }
    return 0;
}

std::size_t session_manager::queued() const {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

std::size_t session_manager::active() const {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return active_;
}

void session_manager::drain() {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void session_manager::set_status(const job_status& status) {
    const std::lock_guard<std::mutex> lock(status_mutex_);
    status_[status.id] = status;
}

std::size_t session_manager::session_memory_cap(int pressure) const {
    std::size_t cap = options_.session_max_memory;
    if (cap == 0) {
        cap = options_.max_memory;
    }
    if (pressure >= 1 && cap > 0) {
        // Degraded: each session may push the tracked footprint only
        // halfway to its normal ceiling, trading earlier in-session
        // degradation (dedup, sparse engine) for admission headroom.
        cap -= cap / 2;
    }
    return cap;
}

void session_manager::worker_loop() {
    for (;;) {
        pending_job job;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_) {
                return;
            }
            job = queue_.front();
            queue_.pop_front();
            ++active_;
            obs::gauge_set("serve.queue_depth", static_cast<double>(queue_.size()));
            obs::gauge_set("serve.active_sessions", static_cast<double>(active_));
        }
        run_session(job);
        {
            const std::lock_guard<std::mutex> lock(queue_mutex_);
            --active_;
            obs::gauge_set("serve.active_sessions", static_cast<double>(active_));
        }
        idle_cv_.notify_all();
    }
}

void session_manager::run_session(const pending_job& job) {
    job_status status;
    status.id = job.id;
    status.state = job_state::running;
    status.recovered = job.recovered;

    // The degradation decision is taken once, at session start, so the
    // whole session runs one consistent configuration. Both knobs are
    // result-neutral: a job that kill -9 re-runs from its journaled payload
    // ends in the same bytes whether or not the replay degrades.
    const int pressure = pressure_level();
    status.degraded = pressure >= 1;
    set_status(status);
    if (status.degraded) {
        obs::counter_add("serve.sessions_degraded_total", 1.0);
    }

    const obs::span session_span("serve.session");
    diag::error_sink sink(options_.lenient ? diag::policy::lenient
                                           : diag::policy::strict);
    try {
        const byte_vector raw = spool_.read_payload(job.id, job.digest);
        const std::vector<byte_vector> messages =
            protocols::capture_payloads(pcap::from_pcap_bytes(raw, sink), sink);
        if (messages.size() < 3) {
            throw parse_error("not enough messages to analyze");
        }

        // The batch job path: the pipeline runs segmentation under the
        // session's one budget and installs its memory governor on this
        // worker thread, so every tracked charge of the session is checked
        // against the session cap.
        core::pipeline_options opt;
        opt.budget_seconds = options_.session_budget_seconds;
        opt.threads = options_.pipeline_threads;
        opt.neighborhood = status.degraded ? dissim::neighborhood_mode::sparse
                                           : options_.neighborhood;
        opt.max_memory = session_memory_cap(pressure);
        const auto segmenter =
            segmentation::make_segmenter(options_.segmenter, options_.pipeline_threads);
        const core::pipeline_result result =
            core::analyze_seeded(messages, segmenter.get(), {}, opt, sink);

        // The report bytes are exactly what `ftclust analyze --report-out`
        // writes for the same capture and options — the crash-recovery
        // acceptance test diffs the two.
        const std::string report = core::render_report(core::summarize_clusters(result));
        util::atomic_write_file(spool_.report_file(job.id), std::string_view{report});
        spool_.mark_done(job.id);
        status.state = job_state::done;
        set_status(status);
        obs::counter_add("serve.jobs_completed_total", 1.0);
        return;
    } catch (const interrupted_error&) {
        // Daemon-wide stop request, not a job failure: the journal entry
        // stays `accepted`, so the next start re-runs the job from its
        // journaled payload.
        status.state = job_state::queued;
        set_status(status);
        return;
    } catch (const budget_exceeded_error& e) {
        // Say where the job stopped, as `ftclust run` prints it.
        status.error = e.what();
        if (!e.partial_report().empty()) {
            status.error += "; partial progress: " + e.partial_report();
        }
    } catch (const ftc::error& e) {
        status.error = e.what();
    } catch (const std::exception& e) {
        status.error = e.what();
    }

    // Typed per-session failure: journal it, surface it, keep serving.
    status.state = job_state::failed;
    try {
        spool_.mark_failed(job.id, status.error);
    } catch (const ftc::error& journal_error) {
        // Even the failure record could not be journaled (disk gone?):
        // the in-memory status still carries both stories.
        status.error += std::string("; additionally: ") + journal_error.what();
    }
    set_status(status);
    obs::counter_add("serve.jobs_failed_total", 1.0);
}

}  // namespace ftc::serve
