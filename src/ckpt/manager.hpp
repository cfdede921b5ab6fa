/// \file manager.hpp
/// Crash-resilient checkpoint/resume for the analysis pipeline.
///
/// checkpoint_manager implements core::stage_observer: after each expensive
/// stage completes it persists that stage's output into its own file in the
/// checkpoint directory —
///
///   segments.ckpt    surviving-message indices + segmentation
///   neighbors.ckpt   unique segments, capped neighbor lists (sparse engine)
///   clustering.ckpt  auto-configuration + DBSCAN outcome
///   manifest.json    status (in-progress | interrupted | complete) + stage
///
/// Only what loads faster than it computes is persisted. A dense run's
/// matrix (and the k-NN curves read from it) is a pure function of the
/// unique segments: a resume rebuilds it in about the time its quadratic
/// snapshot took to load, and every checkpointed run is spared writing
/// and holding that snapshot. So a dense checkpoint holds segments and
/// clustering only, and its resume condenses and rebuilds the matrix.
///
/// Every file is written atomically (ftc::util::atomic_write_file: tmp,
/// fsync, rename), so a crash — or a SIGKILL — at any instant leaves either
/// the previous complete snapshot or the new one, never a torn file.
///
/// Snapshots only save recomputation, so they never fail a run that fits
/// without them: each file's serialized size is projected against the
/// active ftc::mem governor before it is encoded, and a file that would not
/// fit is skipped (counter ckpt.snapshots_skipped_total).
///
/// load() validates each file independently against the current run's
/// fingerprint (options digest + input digest): a missing, damaged or
/// mismatched file is quarantined through ftc::diag::error_sink (category
/// checkpoint) and only that stage is recomputed; the surviving snapshots
/// still seed the run. Because every pipeline stage is bitwise
/// deterministic, mixing restored and recomputed stages yields output
/// identical to an uninterrupted run — across thread counts and budgets
/// (DESIGN.md §10, §11).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "core/pipeline.hpp"
#include "util/diag.hpp"

namespace ftc::ckpt {

/// Stage snapshots restored from a checkpoint directory.
struct restored_state {
    /// Seed for core::analyze_seeded; restored stages present, rest empty.
    core::pipeline_seed seed;
    /// Surviving messages (reconstructed via the stored surviving indices)
    /// when segments were restored; empty otherwise.
    std::vector<byte_vector> messages;
    /// Which stages were restored, pipeline order: any subset of
    /// "segmentation", "dissimilarity", "clustering".
    std::vector<std::string> stages;

    bool has_segments() const { return seed.segments.has_value(); }
};

/// Stage-boundary checkpointer; also the resume loader.
class checkpoint_manager final : public core::stage_observer {
public:
    /// Creates \p dir (and parents) if needed; throws ftc::error when the
    /// directory cannot be created or is not writable — a checkpointed run
    /// that cannot checkpoint should fail before doing hours of work.
    checkpoint_manager(std::filesystem::path dir, options_fingerprint fp);

    /// Restore whatever valid snapshots \p dir holds. \p all_messages is
    /// the full ingested message list (pre-quarantine); restored surviving
    /// indices are applied to it and the restored segmentation is validated
    /// against the reconstructed messages. Damaged/mismatched files are
    /// reported to \p sink (category checkpoint): lenient quarantines and
    /// recomputes, strict throws.
    restored_state load(const std::vector<byte_vector>& all_messages, diag::error_sink& sink);

    // stage_observer: persist each stage the moment it completes.
    void on_segments(const segmentation::message_segments& segments,
                     const std::vector<std::size_t>& surviving) override;
    void on_neighbors(const dissim::unique_segments& unique,
                      const dissim::capped_neighbors& neighbors,
                      const std::vector<std::vector<double>>& knn_curves) override;
    void on_clustering(const cluster::auto_cluster_result& clustering) override;
    void on_interrupted(const char* stage) override;

    /// Mark the run finished (manifest status "complete").
    void mark_complete();

    const std::filesystem::path& dir() const { return dir_; }

    static constexpr const char* kSegmentsFile = "segments.ckpt";
    static constexpr const char* kNeighborsFile = "neighbors.ckpt";
    static constexpr const char* kClusteringFile = "clustering.ckpt";
    static constexpr const char* kManifestFile = "manifest.json";

private:
    void write_sections(const char* filename, std::vector<section> sections);
    void write_manifest(const char* status, const char* stage);

    std::filesystem::path dir_;
    options_fingerprint fp_;
    std::string last_stage_ = "none";
};

}  // namespace ftc::ckpt
