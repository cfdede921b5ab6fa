#include "serve/spool.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <system_error>

#include "obs/export.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/parse.hpp"

namespace ftc::serve {

namespace {

constexpr std::string_view kMetaPrefix = "job-";
constexpr std::string_view kMetaSuffix = ".json";

byte_vector read_file_bytes(const std::filesystem::path& path) {
    std::optional<byte_vector> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        throw parse_error("spool: cannot read " + path.string());
    }
    return std::move(*bytes);
}

std::string meta_json(const spool_entry& entry) {
    obs::json_writer w;
    w.begin_object();
    w.key("schema");
    w.value("ftc.spool.v1");
    w.key("id");
    w.value(entry.id);
    w.key("state");
    w.value(job_phase_name(entry.phase));
    w.key("payload_bytes");
    w.value(entry.payload_bytes);
    w.key("payload_digest");
    // Digests exceed 2^53; store as a string so the double-backed JSON
    // parser round-trips them exactly.
    w.value(std::to_string(entry.payload_digest));
    if (!entry.error.empty()) {
        w.key("error");
        w.value(std::string_view{entry.error});
    }
    w.end_object();
    return w.take();
}

spool_entry parse_meta(const std::string& text) {
    const util::json_value doc = util::parse_json(text);
    if (doc.string_or("schema", "") != "ftc.spool.v1") {
        throw parse_error("spool: unknown metadata schema");
    }
    spool_entry entry;
    entry.id = static_cast<std::uint64_t>(doc.at("id").as_number());
    const std::string& state = doc.at("state").as_string();
    if (state == "accepted") {
        entry.phase = job_phase::accepted;
    } else if (state == "done") {
        entry.phase = job_phase::done;
    } else if (state == "failed") {
        entry.phase = job_phase::failed;
    } else {
        throw parse_error("spool: unknown job state '" + state + "'");
    }
    entry.payload_bytes = static_cast<std::uint64_t>(doc.at("payload_bytes").as_number());
    const std::string& digest = doc.at("payload_digest").as_string();
    entry.payload_digest = util::parse_u64(digest.c_str(), "payload_digest");
    entry.error = doc.string_or("error", "");
    return entry;
}

/// The id a spool file name `job-<id>.<ext>` names, or 0 for other names.
std::uint64_t job_file_id(const std::string& name) {
    if (!name.starts_with(kMetaPrefix)) {
        return 0;
    }
    const char* end = name.data() + name.size();
    std::uint64_t id = 0;
    const auto [ptr, ec] = std::from_chars(name.data() + kMetaPrefix.size(), end, id);
    return ec == std::errc{} && ptr != end && *ptr == '.' ? id : 0;
}

/// Every parseable metadata file in \p dir, sorted by id; the rest is
/// quarantined through \p sink.
std::vector<spool_entry> read_metadata(const std::filesystem::path& dir,
                                       diag::error_sink& sink) {
    std::vector<spool_entry> out;
    std::error_code ec;
    for (const auto& dirent : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = dirent.path().filename().string();
        if (!name.starts_with(kMetaPrefix) || !name.ends_with(kMetaSuffix)) {
            continue;
        }
        try {
            const byte_vector raw = read_file_bytes(dirent.path());
            out.push_back(parse_meta(std::string(raw.begin(), raw.end())));
        } catch (const ftc::error& e) {
            sink.fail({diag::category::spool, diag::severity::error, 0, 0,
                       "spool metadata " + name + ": " + e.what()});
            // lenient: the job is lost but named; strict threw
        }
    }
    std::sort(out.begin(), out.end(),
              [](const spool_entry& a, const spool_entry& b) { return a.id < b.id; });
    return out;
}

/// Verify that an accepted job's payload is still the bytes that were
/// journaled. A mismatch downgrades the job to failed (typed, per job)
/// instead of feeding damaged input into a session; returns whether it did.
bool downgrade_if_damaged(const spool& journal, spool_entry& entry,
                          diag::error_sink& sink) {
    if (entry.phase != job_phase::accepted) {
        return false;
    }
    try {
        (void)journal.read_payload(entry.id, entry.payload_digest);
        return false;
    } catch (const ftc::error& e) {
        sink.fail({diag::category::spool, diag::severity::error, 0, 0,
                   "spool payload of job " + std::to_string(entry.id) + ": " + e.what()});
        entry.phase = job_phase::failed;
        entry.error = std::string("spool payload damaged: ") + e.what();
        return true;
    }
}

}  // namespace

std::string_view job_phase_name(job_phase phase) {
    switch (phase) {
        case job_phase::accepted:
            return "accepted";
        case job_phase::done:
            return "done";
        case job_phase::failed:
            return "failed";
    }
    return "unknown";
}

spool::spool(std::filesystem::path dir) : dir_(std::move(dir)) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw ftc::error("spool: cannot create directory " + dir_.string() + ": " +
                         ec.message());
    }
    // Fail at startup when the directory is not writable: probe with the
    // same atomic writer every journal write will use.
    const std::filesystem::path probe = dir_ / ".spool-probe";
    util::atomic_write_file(probe, std::string_view{"ok"});
    std::filesystem::remove(probe, ec);

    // Adopt the journaled entries (replayed jobs transition through
    // mark_done/mark_failed like fresh ones). A damaged payload's downgrade
    // is journaled at once, so later restarts neither re-hash nor
    // re-quarantine it.
    diag::error_sink ignore(diag::policy::lenient);
    entries_ = read_metadata(dir_, ignore);
    for (spool_entry& entry : entries_) {
        if (downgrade_if_damaged(*this, entry, ignore)) {
            write_meta(entry);
        }
    }
    // Ids continue after the highest any job file names, so a new job never
    // takes over the files of one whose metadata is damaged.
    for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
        next_id_ = std::max(next_id_, job_file_id(dirent.path().filename().string()) + 1);
    }
}

std::filesystem::path spool::payload_file(std::uint64_t id) const {
    return dir_ / (std::string(kMetaPrefix) + std::to_string(id) + ".pcap");
}

std::filesystem::path spool::meta_file(std::uint64_t id) const {
    return dir_ / (std::string(kMetaPrefix) + std::to_string(id) + std::string(kMetaSuffix));
}

std::filesystem::path spool::report_file(std::uint64_t id) const {
    return dir_ / (std::string(kMetaPrefix) + std::to_string(id) + ".report");
}

void spool::write_meta(const spool_entry& entry) {
    util::atomic_write_file(meta_file(entry.id), std::string_view{meta_json(entry)});
}

std::uint64_t spool::append(byte_view payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spool_entry entry;
    entry.id = next_id_++;
    entry.payload_bytes = payload.size();
    entry.payload_digest = obs::fnv1a64(payload.data(), payload.size());
    // Payload before metadata: a crash between the two leaves an orphan
    // payload file (harmless, no metadata points at it), never metadata
    // naming a payload that does not exist.
    util::atomic_write_file(payload_file(entry.id), payload);
    if (util::net::consume_io_fault(util::net::io_op::spool_op) ==
        util::net::io_fault::corrupt_spool) {
        // Injected on-disk corruption: flip one payload byte in place so
        // the digest check catches it exactly like real bit rot.
        std::fstream f(payload_file(entry.id),
                       std::ios::binary | std::ios::in | std::ios::out);
        if (f && !payload.empty()) {
            char byte = 0;
            f.read(&byte, 1);
            f.seekp(0);
            byte = static_cast<char>(byte ^ 0x40);
            f.write(&byte, 1);
        }
    }
    write_meta(entry);
    entries_.push_back(entry);
    return entry.id;
}

void spool::mark_done(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (spool_entry& entry : entries_) {
        if (entry.id == id) {
            entry.phase = job_phase::done;
            entry.error.clear();
            write_meta(entry);
            return;
        }
    }
    throw ftc::error("spool: mark_done on unknown job " + std::to_string(id));
}

void spool::mark_failed(std::uint64_t id, std::string_view error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (spool_entry& entry : entries_) {
        if (entry.id == id) {
            entry.phase = job_phase::failed;
            entry.error = std::string(error);
            write_meta(entry);
            return;
        }
    }
    throw ftc::error("spool: mark_failed on unknown job " + std::to_string(id));
}

std::vector<spool_entry> spool::scan(diag::error_sink& sink) const {
    std::vector<spool_entry> out = read_metadata(dir_, sink);
    for (spool_entry& entry : out) {
        (void)downgrade_if_damaged(*this, entry, sink);
    }
    return out;
}

std::vector<spool_entry> spool::entries() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

byte_vector spool::read_payload(std::uint64_t id, std::uint64_t expected_digest) const {
    byte_vector payload = read_file_bytes(payload_file(id));
    const std::uint64_t digest = obs::fnv1a64(payload.data(), payload.size());
    if (digest != expected_digest) {
        throw parse_error("spool: payload digest mismatch for job " + std::to_string(id) +
                          " (journaled " + std::to_string(expected_digest) + ", on disk " +
                          std::to_string(digest) + ")");
    }
    return payload;
}

}  // namespace ftc::serve
