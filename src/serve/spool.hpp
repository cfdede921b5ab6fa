/// \file spool.hpp
/// Crash-durable job journal of the serve daemon (ftc::serve::spool).
///
/// Every accepted job is journaled to the spool directory *before* the
/// daemon acknowledges it, so acceptance survives kill -9:
///
///   job-<id>.pcap   the submitted capture bytes, verbatim
///   job-<id>.json   metadata: id, state (accepted|done|failed), payload
///                   digest + size, error text for failed jobs
///   job-<id>.report the finished analyst report (written once, at done)
///
/// All writes go through util::atomic_write_file (tmp + fsync + rename), so
/// a crash at any instant leaves complete files or none. On restart,
/// scan() walks the directory: jobs not yet `done`/`failed` are the replay
/// set, so kill -9 re-runs the jobs in flight from their journaled
/// payloads — and, every stage being bitwise deterministic, each replay
/// produces output identical to an uninterrupted run. Damaged metadata or
/// a payload whose digest no longer matches is quarantined through
/// ftc::diag (category spool) — one corrupt spool file fails one job,
/// typed, never the daemon.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "util/byteio.hpp"
#include "util/diag.hpp"

namespace ftc::serve {

/// Durable lifecycle states of a journaled job.
enum class job_phase {
    accepted,  ///< journaled, not yet finished — the replay set
    done,      ///< report written
    failed,    ///< ended in a typed per-session error (recorded)
};

std::string_view job_phase_name(job_phase phase);

/// One journaled job as read back from its metadata file.
struct spool_entry {
    std::uint64_t id = 0;
    job_phase phase = job_phase::accepted;
    std::uint64_t payload_bytes = 0;
    std::uint64_t payload_digest = 0;  ///< FNV-1a 64 of the payload file
    std::string error;                 ///< failed jobs: the typed error text
};

/// The job journal over one spool directory. Thread-safe: submissions and
/// worker state transitions serialize on an internal mutex; the files
/// themselves are only ever replaced atomically.
class spool {
public:
    /// Creates \p dir (and parents) if needed; throws ftc::error when it
    /// cannot be created or written — a daemon that cannot journal must
    /// fail at startup, not on the first job. Existing entries are kept
    /// (that is the point); new ids continue after the highest on disk.
    explicit spool(std::filesystem::path dir);

    spool(const spool&) = delete;
    spool& operator=(const spool&) = delete;

    /// Journal a new job: payload first, then metadata (state accepted).
    /// Returns the assigned id. Throws ftc::error when the journal cannot
    /// be written. An armed corrupt_spool I/O fault flips one payload byte
    /// after the write, simulating on-disk corruption for the fault sweep.
    std::uint64_t append(byte_view payload);

    /// Transition a job to done (its report was written) / failed.
    void mark_done(std::uint64_t id);
    void mark_failed(std::uint64_t id, std::string_view error);

    /// Read back every journaled job, sorted by id. Unreadable or
    /// malformed metadata is quarantined through \p sink (category spool)
    /// and the job skipped; a payload-digest mismatch is reported the same
    /// way but the entry is returned as failed so the daemon can surface
    /// the loss per job.
    std::vector<spool_entry> scan(diag::error_sink& sink) const;

    /// The payload bytes of job \p id; throws ftc::parse_error when the
    /// file is unreadable or its digest does not match \p expected_digest.
    byte_vector read_payload(std::uint64_t id, std::uint64_t expected_digest) const;

    std::filesystem::path payload_file(std::uint64_t id) const;
    std::filesystem::path meta_file(std::uint64_t id) const;
    std::filesystem::path report_file(std::uint64_t id) const;

    const std::filesystem::path& dir() const { return dir_; }

private:
    void write_meta(const spool_entry& entry);

    std::filesystem::path dir_;
    mutable std::mutex mutex_;
    std::uint64_t next_id_ = 1;
    std::vector<spool_entry> entries_;  ///< in-memory mirror (id-sorted)
};

}  // namespace ftc::serve
