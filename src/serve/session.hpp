/// \file session.hpp
/// Fault-isolated session execution for the serve daemon
/// (ftc::serve::session_manager).
///
/// The manager owns a bounded job queue and a small pool of worker
/// threads. Each accepted job is journaled to the spool *before* the
/// caller hears "accepted", then executed as one *session*: decode, then
/// core::analyze_seeded — the entry point `ftclust run` calls — with its
/// own diag::error_sink, its own budget (segmentation through refinement)
/// and its own memory cap, which the pipeline enforces with a governor on
/// the worker thread. The isolation contract:
///
///  - a session failure is a typed, per-job outcome (journaled as
///    `failed` with the error text, plus the stage reached when a budget
///    tripped) — it never unwinds the daemon;
///  - admission control sheds *before* accepting: a full queue, a
///    stopping daemon or a memory projection past the process ceiling is
///    a polite refusal (the daemon answers 503 + Retry-After), never an
///    OOM later;
///  - under pressure (deep queue or high tracked footprint) sessions are
///    degraded first — they run under the halved session memory cap, so
///    the pipeline's own memory ladder (dedup, then the sparse engine in
///    place of a matrix that would not fit) engages earlier — and only
///    when degradation cannot help are submissions refused. Degradation is
///    result-neutral: every rung of the ladder is bitwise-identical, so
///    reports match an unpressured run byte for byte;
///  - kill -9 re-runs the jobs in flight from their journaled payloads:
///    recover() re-enqueues journaled-but-unfinished jobs, and, every
///    stage being deterministic, the replayed report is identical to an
///    uninterrupted one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/spool.hpp"
#include "util/byteio.hpp"

namespace ftc::serve {

/// Daemon-level configuration shared by every session.
struct serve_options {
    std::string segmenter = "NEMESYS";  ///< segmentation algorithm for all jobs
    std::size_t sessions = 2;           ///< worker threads (concurrent sessions)
    std::size_t queue_depth = 8;        ///< accepted-but-unstarted jobs bound
    bool lenient = true;                ///< quarantine malformed input per job
    double session_budget_seconds = 120;  ///< per-session wall clock (0 = none)
    std::size_t pipeline_threads = 1;     ///< --threads of each session's pipeline
    std::size_t max_memory = 0;  ///< process-wide tracked-heap ceiling (0 = off)
    /// Tracked-footprint ceiling a single session's charges may reach;
    /// 0 derives it from max_memory. Halved when degraded.
    std::size_t session_max_memory = 0;
    int retry_after_seconds = 1;  ///< advisory Retry-After on shed responses
};

/// In-memory lifecycle of a job (the durable one lives in the spool).
enum class job_state {
    queued,   ///< journaled, waiting for a worker
    running,  ///< a session is executing it
    done,     ///< report written, journaled done
    failed,   ///< typed per-session error, journaled failed
};

std::string_view job_state_name(job_state state);

/// Snapshot of one job as served by GET /jobs/<id>.
struct job_status {
    std::uint64_t id = 0;
    job_state state = job_state::queued;
    bool degraded = false;   ///< ran under the halved session memory cap
    bool recovered = false;  ///< replayed from the spool after a restart
    std::string error;       ///< failed jobs: the typed error text (+ partial progress)
};

/// Outcome of submit(): accepted (with the journaled id) or shed.
struct admission {
    bool accepted = false;
    std::uint64_t id = 0;
    std::string reason;  ///< shed reason: "queue-full", "memory-pressure", "stopping"
};

/// The session pool. Construction wires the spool; call recover() to
/// re-enqueue journaled unfinished jobs, then start() to spawn workers.
/// stop() (idempotent, also run by the destructor) stops accepting,
/// wakes the workers and joins them; queued-but-unstarted jobs stay
/// journaled `accepted` and replay on the next start.
class session_manager {
public:
    session_manager(spool& sp, serve_options options);
    ~session_manager();

    session_manager(const session_manager&) = delete;
    session_manager& operator=(const session_manager&) = delete;

    /// Adopt every job the spool read back when it was constructed:
    /// done/failed entries become queryable statuses, unfinished ones are
    /// re-enqueued (marked recovered). Returns the number re-enqueued.
    /// Call once, before start().
    std::size_t recover();

    void start();
    void stop() noexcept;

    /// Admission control + journaling. On acceptance the job is durable
    /// before this returns.
    admission submit(byte_view payload);

    /// Status of a known job (journaled or in flight), or nullopt.
    std::optional<job_status> status(std::uint64_t id) const;

    /// 0 = normal, 1 = under pressure (new sessions run under the halved
    /// session memory cap, when there is one). Published as a health field.
    int pressure_level() const;

    std::size_t queued() const;
    std::size_t active() const;
    const serve_options& options() const { return options_; }
    const spool& journal() const { return spool_; }

    /// Block until no job is queued or running (test convenience).
    void drain();

private:
    struct pending_job {
        std::uint64_t id = 0;
        std::uint64_t digest = 0;
        bool recovered = false;
    };

    void serve_queue();
    void run_session(const pending_job& job);
    void set_status(const job_status& status);
    std::size_t session_memory_cap(int pressure) const;

    spool& spool_;
    serve_options options_;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::condition_variable idle_cv_;
    std::deque<pending_job> queue_;
    std::size_t active_ = 0;
    bool stopping_ = false;
    bool started_ = false;

    mutable std::mutex status_mutex_;
    std::unordered_map<std::uint64_t, job_status> status_;

    std::vector<std::thread> workers_;
};

}  // namespace ftc::serve
