#include "ckpt/manager.hpp"

#include <optional>
#include <utility>

#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace ftc::ckpt {

namespace {

/// Read a whole checkpoint file; nullopt when it does not exist (a fresh
/// directory is not damage), throws ftc::error on I/O failure.
std::optional<byte_vector> read_file(const std::filesystem::path& path) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        return std::nullopt;
    }
    std::optional<byte_vector> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        throw ftc::error("ckpt: cannot read " + path.string());
    }
    return bytes;
}

/// Decode one checkpoint file and verify its leading fingerprint section
/// against the current run. Returns the non-fingerprint sections.
std::vector<section> checked_sections(byte_view file, const options_fingerprint& expected) {
    std::vector<section> sections = decode_sections(file);
    if (sections.empty() ||
        sections.front().id != static_cast<std::uint32_t>(section_id::fingerprint)) {
        throw parse_error("ckpt: first section is not the fingerprint");
    }
    const options_fingerprint fp = decode_fingerprint(sections.front().payload);
    if (!(fp == expected)) {
        throw parse_error(
            "ckpt: fingerprint mismatch — checkpoint was written for different "
            "options or input; refusing to resume from it");
    }
    sections.erase(sections.begin());
    return sections;
}

/// Whether a checkpoint file around payloads of these sizes (plus the
/// fingerprint) fits the memory governor. A snapshot only saves
/// recomputation, so it never fails a run that fits without it: writers
/// project the file image before encoding anything and, when it would cross
/// the budget, skip the file and count the skip. Resume then recomputes
/// just that stage.
bool snapshot_fits(std::vector<std::uint64_t> payload_bytes) {
    payload_bytes.push_back(kFingerprintBytes);
    if (!mem::would_exceed(file_bytes(payload_bytes))) {
        return true;
    }
    obs::counter_add("ckpt.snapshots_skipped_total", 1.0);
    return false;
}

const section* find_section(const std::vector<section>& sections, section_id id) {
    for (const section& s : sections) {
        if (s.id == static_cast<std::uint32_t>(id)) {
            return &s;
        }
    }
    return nullptr;
}

}  // namespace

checkpoint_manager::checkpoint_manager(std::filesystem::path dir, options_fingerprint fp)
    : dir_(std::move(dir)), fp_(fp) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw ftc::error("ckpt: cannot create checkpoint directory " + dir_.string() + ": " +
                         ec.message());
    }
    if (!std::filesystem::is_directory(dir_)) {
        throw ftc::error("ckpt: " + dir_.string() + " is not a directory");
    }
}

void checkpoint_manager::write_sections(const char* filename, std::vector<section> sections) {
    sections.insert(sections.begin(),
                    section{static_cast<std::uint32_t>(section_id::fingerprint),
                            encode_fingerprint(fp_)});
    const byte_vector file = encode_sections(sections);
    // The serialized image is a real buffer (megabytes of segments or
    // neighbor lists at scale); charge it so the governor (and the fault
    // injector) see checkpoint writes as the allocation spike they are.
    // Scoped: released as soon as the write lands.
    const mem::charge file_charge(file.size(), "ckpt.write");
    util::atomic_write_file(dir_ / filename, byte_view{file});
    obs::counter_add("ckpt.files_written_total", 1.0);
    obs::counter_add("ckpt.bytes_written_total", static_cast<double>(file.size()));
}

void checkpoint_manager::write_manifest(const char* status, const char* stage) {
    obs::json_writer w;
    w.begin_object();
    w.key("tool");
    w.value("ftclust");
    w.key("kind");
    w.value("checkpoint");
    w.key("format_version");
    w.value(static_cast<std::uint64_t>(kFormatVersion));
    w.key("status");
    w.value(status);
    w.key("stage");
    w.value(stage);
    w.key("options_digest");
    w.value(fp_.options_digest);
    w.key("input_digest");
    w.value(fp_.input_digest);
    w.end_object();
    util::atomic_write_file(dir_ / kManifestFile, std::string_view{w.take()});
}

void checkpoint_manager::on_segments(const segmentation::message_segments& segments,
                                     const std::vector<std::size_t>& surviving) {
    obs::span sp("ckpt.save.segments");
    segments_payload p;
    p.surviving = surviving;
    p.segments = segments;
    if (!snapshot_fits({segments_bytes(p)})) {
        return;
    }
    write_sections(kSegmentsFile,
                   {{static_cast<std::uint32_t>(section_id::segments), encode_segments(p)}});
    last_stage_ = "segmentation";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_neighbors(const dissim::unique_segments& unique,
                                      const dissim::capped_neighbors& neighbors,
                                      const std::vector<std::vector<double>>& /*knn_curves*/) {
    obs::span sp("ckpt.save.neighbors");
    // The capped lists are O(n·ln n) and stand for a sparse build that costs
    // far more than their decode; they resume into an adopted
    // sparse_neighborhood serving bitwise the same values. The k-NN curves
    // are a column read of the lists, so they are not persisted.
    if (!snapshot_fits({unique_bytes(unique), neighbors_bytes(neighbors)})) {
        return;
    }
    write_sections(kNeighborsFile,
                   {{static_cast<std::uint32_t>(section_id::unique), encode_unique(unique)},
                    {static_cast<std::uint32_t>(section_id::neighbors),
                     encode_neighbors(neighbors)}});
    last_stage_ = "dissimilarity";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_clustering(const cluster::auto_cluster_result& clustering) {
    obs::span sp("ckpt.save.clustering");
    if (!snapshot_fits({clustering_bytes(clustering)})) {
        return;
    }
    write_sections(kClusteringFile, {{static_cast<std::uint32_t>(section_id::clustering),
                                      encode_clustering(clustering)}});
    last_stage_ = "clustering";
    write_manifest("in-progress", last_stage_.c_str());
}

void checkpoint_manager::on_interrupted(const char* stage) {
    // Async contexts reach this via the cooperative cancellation points,
    // never from inside a signal handler, so file I/O is safe here. The
    // completed-stage snapshots are already on disk; only the fact and the
    // lost stage need recording.
    write_manifest("interrupted", stage);
    obs::counter_add("ckpt.interrupted_total", 1.0);
}

void checkpoint_manager::mark_complete() {
    write_manifest("complete", last_stage_.c_str());
}

restored_state checkpoint_manager::load(const std::vector<byte_vector>& all_messages,
                                        diag::error_sink& sink) {
    obs::span sp("ckpt.load");
    restored_state out;

    // Each file validates independently; a damaged one costs exactly its
    // own stage. quarantine() routes the failure through the sink so strict
    // mode throws and lenient mode records-and-recomputes, like every other
    // ingestion fault in the codebase.
    const auto quarantine = [&](const char* file, const std::string& why) {
        sink.fail({diag::category::checkpoint, diag::severity::error, 0, 0,
                   "checkpoint " + (dir_ / file).string() + ": " + why});
        obs::counter_add("ckpt.sections_rejected_total", 1.0);
    };

    // segments.ckpt -> seed.segments (+ surviving-message reconstruction).
    try {
        if (const auto file = read_file(dir_ / kSegmentsFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* seg = find_section(sections, section_id::segments);
            if (seg == nullptr) {
                throw parse_error("ckpt: segments section missing");
            }
            segments_payload p = decode_segments(seg->payload);
            std::vector<byte_vector> messages;
            messages.reserve(p.surviving.size());
            for (std::size_t idx : p.surviving) {
                if (idx >= all_messages.size()) {
                    throw parse_error(message("ckpt: surviving index ", idx,
                                              " beyond message count ", all_messages.size()));
                }
                messages.push_back(all_messages[idx]);
            }
            // The decoded ranges must actually segment the reconstructed
            // messages — the one property digests cannot vouch for.
            segmentation::validate_segmentation(messages, p.segments);
            out.messages = std::move(messages);
            out.seed.segments = std::move(p.segments);
            out.stages.emplace_back("segmentation");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kSegmentsFile, e.what());
    }

    // neighbors.ckpt -> seed.unique + seed.neighbors (sparse-engine snapshot).
    // Sections are found by id, so a file that still carries a retired
    // section (section_id's comment) restores from the ones it needs.
    try {
        if (const auto file = read_file(dir_ / kNeighborsFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* uniq = find_section(sections, section_id::unique);
            const section* nbrs = find_section(sections, section_id::neighbors);
            if (uniq == nullptr || nbrs == nullptr) {
                throw parse_error("ckpt: unique/neighbors section missing");
            }
            dissim::unique_segments unique = decode_unique(uniq->payload);
            dissim::capped_neighbors neighbors = decode_neighbors(nbrs->payload);
            if (neighbors.size() != unique.size()) {
                throw parse_error(message("ckpt: neighbor lists for ", neighbors.size(),
                                          " points but ", unique.size(), " unique segments"));
            }
            out.seed.unique = std::move(unique);
            out.seed.neighbors = std::move(neighbors);
            out.stages.emplace_back("dissimilarity");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kNeighborsFile, e.what());
    }

    // clustering.ckpt -> seed.clustering.
    try {
        if (const auto file = read_file(dir_ / kClusteringFile)) {
            std::vector<section> sections = checked_sections(*file, fp_);
            const section* clu = find_section(sections, section_id::clustering);
            if (clu == nullptr) {
                throw parse_error("ckpt: clustering section missing");
            }
            cluster::auto_cluster_result clustering = decode_clustering(clu->payload);
            // When the neighbor lists were restored too, the label vector
            // must index them; when they were not, the deterministic
            // recompute reproduces the same unique-segment count (same input
            // + options, enforced by the fingerprint), so the check happens
            // where it can.
            if (out.seed.neighbors.has_value() &&
                clustering.labels.labels.size() != out.seed.neighbors->size()) {
                throw parse_error(message("ckpt: ", clustering.labels.labels.size(),
                                          " labels for ", out.seed.neighbors->size(),
                                          " neighbor lists"));
            }
            out.seed.clustering = std::move(clustering);
            out.stages.emplace_back("clustering");
        }
    } catch (const budget_exceeded_error&) {
        throw;
    } catch (const ftc::error& e) {
        quarantine(kClusteringFile, e.what());
    }

    obs::counter_add("ckpt.stages_restored_total", static_cast<double>(out.stages.size()));
    return out;
}

}  // namespace ftc::ckpt
