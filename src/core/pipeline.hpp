/// \file pipeline.hpp
/// The paper's end-to-end method (Fig. 1): preprocess -> segment ->
/// dissimilarity -> auto-configuration -> DBSCAN -> refinement, producing
/// clusters of *pseudo data types*.
///
/// This is the primary public entry point of ftclust:
///
/// \code
///   auto trace    = ftc::protocols::generate_trace("NTP", 1000, seed);
///   auto messages = ftc::segmentation::message_bytes(trace);
///   auto result   = ftc::core::analyze(messages,
///                                      ftc::segmentation::nemesys_segmenter{},
///                                      {});
///   for (auto& cluster : result.clusters()) { ... }
/// \endcode
#pragma once

#include <optional>

#include "cluster/autoconf.hpp"
#include "cluster/refine.hpp"
#include "dissim/matrix.hpp"
#include "dissim/neighborhood.hpp"
#include "segmentation/segment.hpp"

namespace ftc::core {

/// Stage-boundary observer: the pipeline announces each stage output the
/// moment it is fully materialized, before the next stage starts. This is
/// the hook the checkpoint subsystem (ftc::ckpt::checkpoint_manager)
/// implements to persist crash-resilient snapshots; observers must not
/// mutate the passed state. on_* fires only for stages the pipeline
/// actually *computed* — stages restored from a pipeline_seed are not
/// re-announced (their snapshot already exists).
class stage_observer {
public:
    virtual ~stage_observer() = default;

    /// Segmentation finished: \p segments[i] segments the input message
    /// \p surviving[i] (lenient segmentation may quarantine messages; a
    /// resume must know which ones survived).
    virtual void on_segments(const segmentation::message_segments& /*segments*/,
                             const std::vector<std::size_t>& /*surviving*/) {}

    /// Dissimilarity stage finished: condensed unique segments, the full
    /// pairwise matrix, and the batched k-NN curves
    /// (kth_nn_many(cluster::knn_k_max(n))) the epsilon sweep consumes.
    /// Fires only when the matrix was built; sparse builds (by mode or
    /// under memory pressure) announce on_neighbors.
    virtual void on_matrix(const dissim::unique_segments& /*unique*/,
                           const dissim::dissimilarity_matrix& /*matrix*/,
                           const std::vector<std::vector<double>>& /*knn_curves*/) {}

    /// Dissimilarity stage finished in sparse mode: condensed unique
    /// segments, the capped neighbor lists (the persistable substrate of
    /// the sparse source), and the batched k-NN curves. The dense/sparse
    /// split mirrors what each mode materializes — an observer persisting
    /// snapshots stores the matrix in one case and the lists in the other,
    /// and either snapshot resumes into a bitwise-identical run.
    virtual void on_neighbors(const dissim::unique_segments& /*unique*/,
                              const dissim::capped_neighbors& /*neighbors*/,
                              const std::vector<std::vector<double>>& /*knn_curves*/) {}

    /// Auto-configuration + DBSCAN (incl. both guards) finished.
    virtual void on_clustering(const cluster::auto_cluster_result& /*clustering*/) {}

    /// The run is unwinding on a budget trip or stop request; \p stage is
    /// the stage that was running. Completed stages were already announced,
    /// so an observer persisting snapshots only needs to record the fact.
    virtual void on_interrupted(const char* /*stage*/) {}
};

/// Precomputed stage outputs a resumed run starts from (produced by
/// ftc::ckpt::checkpoint_manager::load, or by tests). Each present stage is
/// used verbatim and its computation skipped; absent stages are computed as
/// usual. Consistency contract: `matrix` and `neighbors` require `unique`
/// (they index its values), and `knn_curves` is used only with one of them.
/// `clustering` may arrive without them (a skipped or damaged dissimilarity
/// snapshot), in which case that stage is recomputed; it must label the
/// unique segments either way. Because every stage is deterministic, a run
/// seeded with any subset of a previous run's outputs produces
/// bitwise-identical final results.
struct pipeline_seed {
    std::optional<segmentation::message_segments> segments;
    std::optional<dissim::unique_segments> unique;
    std::optional<dissim::dissimilarity_matrix> matrix;
    /// Sparse-mode dissimilarity snapshot (capped neighbor lists). Requires
    /// `unique`; when both `matrix` and `neighbors` are present the matrix
    /// wins (it carries strictly more information). Adopted regardless of
    /// pipeline_options::neighborhood — the modes are result-identical, so
    /// a snapshot from either is a valid seed for both.
    std::optional<dissim::capped_neighbors> neighbors;
    std::optional<std::vector<std::vector<double>>> knn_curves;
    std::optional<cluster::auto_cluster_result> clustering;

    bool empty() const {
        return !segments.has_value() && !unique.has_value() && !matrix.has_value() &&
               !neighbors.has_value() && !knn_curves.has_value() && !clustering.has_value();
    }
};

/// Options of the full analysis pipeline.
struct pipeline_options {
    /// Minimum segment length considered for clustering (paper: 2 — one-byte
    /// segments are excluded).
    std::size_t min_segment_length = 2;
    /// Epsilon auto-configuration tunables.
    cluster::autoconf_options autoconf;
    /// Refinement thresholds.
    cluster::refine_options refine;
    /// Run the merge/split refinement stage (paper Sec. III-F).
    bool apply_refinement = true;
    /// Oversized-cluster guard threshold (paper: 0.6).
    double oversize_fraction = 0.6;
    /// Wall-clock budget in seconds; 0 = unlimited. Exceeding it raises
    /// ftc::budget_exceeded_error (the paper's "fails") whose
    /// partial_report() names the stage reached and the volume processed.
    double budget_seconds = 0.0;
    /// Cap on the total number of segments entering the dissimilarity
    /// stage; 0 = unlimited. Crossing it raises ftc::budget_exceeded_error
    /// before the quadratic stages can blow up memory.
    std::size_t max_segments = 0;
    /// Cap on total message payload bytes; 0 = unlimited.
    std::size_t max_bytes = 0;
    /// Cap on the tracked heap footprint in bytes; 0 = unlimited. Enforced
    /// by installing a ftc::mem::governor for the run (unless the caller
    /// already installed one — the innermost governor wins). Under
    /// projected pressure the pipeline degrades instead of dying: weighted
    /// condensation (occurrence lists elided, counts kept), then the sparse
    /// engine in place of a dense matrix that would not fit, in every
    /// neighborhood mode — both provably result-identical — and only when
    /// even the degraded footprint cannot fit does the run end in
    /// ftc::memory_budget_exceeded_error with a partial-progress report
    /// (DESIGN.md §11). A limit never changes clustering output, only how
    /// (or whether) the run reaches it.
    std::size_t max_memory = 0;
    /// Which epsilon-neighborhood construction feeds DBSCAN and autoconf
    /// (DESIGN.md §13): dense builds the pairwise matrix, sparse always
    /// builds capped neighbor lists, auto picks sparse at scale
    /// (>= dissim::kSparseAutoUniques unique segments) and dense below. A
    /// matrix that would not fit max_memory is never built in any mode.
    /// Result-neutral by construction — byte-identical cluster reports
    /// either way — so it is NOT part of the checkpoint fingerprint,
    /// exactly like the thread count.
    dissim::neighborhood_mode neighborhood = dissim::neighborhood_mode::auto_;
    /// Worker threads for the dissimilarity-matrix, k-NN and epsilon-sweep
    /// hot paths: 0 = one lane per hardware thread, 1 = the exact legacy
    /// serial path. The parallel stages are pure fan-outs over independent
    /// work items, so clustering output is bitwise identical at any
    /// setting (see tests/test_dissim_parallel_determinism.cpp).
    std::size_t threads = 0;
    /// Stage-boundary observer (checkpointing); nullptr = none. Not owned;
    /// must outlive the run. Observing a run does not change its result.
    stage_observer* observer = nullptr;
};

/// Everything the pipeline produced, stage by stage.
struct pipeline_result {
    /// Input index of each segmented message: segments[i] segments
    /// messages[surviving[i]]. The identity unless a lenient sink
    /// quarantined messages during segmentation.
    std::vector<std::size_t> surviving;
    segmentation::message_segments segments;      ///< segmenter output
    dissim::unique_segments unique;               ///< >=2-byte unique values
    cluster::auto_cluster_result clustering;      ///< auto-config + DBSCAN
    cluster::refine_result refinement;            ///< merge/split audit trail
    cluster::cluster_labels final_labels;         ///< labels after refinement
    double elapsed_seconds = 0.0;

    /// Member indices (into unique.values) per final cluster.
    std::vector<std::vector<std::size_t>> clusters() const {
        return final_labels.members();
    }
};

/// Run the pipeline on raw messages with the given segmenter.
pipeline_result analyze(const std::vector<byte_vector>& messages,
                        const segmentation::segmenter& segmenter,
                        const pipeline_options& options = {});

/// Run the pipeline on a pre-computed segmentation (e.g. ground truth).
pipeline_result analyze_segments(const std::vector<byte_vector>& messages,
                                 segmentation::message_segments segments,
                                 const pipeline_options& options = {});

/// Run the pipeline starting from whatever stage outputs \p seed already
/// carries (checkpoint resume): present stages are adopted verbatim,
/// absent ones computed. \p segmenter may be null when seed.segments is
/// present; otherwise it performs the segmentation stage through
/// segmentation::segment_lenient, which quarantines unsegmentable messages
/// into \p sink under its policy. One budget (options.budget_seconds and
/// the caps) bounds the whole run, segmentation included. This is the one
/// job path: `ftclust run` and every serve session call it.
pipeline_result analyze_seeded(const std::vector<byte_vector>& messages,
                               const segmentation::segmenter* segmenter, pipeline_seed seed,
                               const pipeline_options& options, diag::error_sink& sink);

/// The same with a strict sink. analyze and analyze_segments are thin
/// wrappers over this entry point.
pipeline_result analyze_seeded(const std::vector<byte_vector>& messages,
                               const segmentation::segmenter* segmenter, pipeline_seed seed,
                               const pipeline_options& options = {});

}  // namespace ftc::core
