/// \file sparse.hpp
/// Sparse epsilon-neighborhood construction (ftc::dissim::sparse,
/// DESIGN.md §13) — the sub-quadratic replacement for the dense matrix.
///
/// Instead of materializing all n·(n−1)/2 pairwise cells, the sparse engine
/// keeps, per unique segment, a short sorted list of its nearest neighbors
/// (capped at the autoconf k horizon) and answers everything else with
/// bucket-pruned scans:
///
///  - **Length buckets.** Representatives are grouped by byte length. For
///    lengths m <= n the sliding-Canberra dissimilarity is bounded below by
///    ((n−m)/n)² (derivation in DESIGN.md §13), so whole buckets whose
///    bound provably exceeds the current epsilon ceiling are skipped
///    without a single kernel call. Buckets are visited in ascending-bound
///    order, so the first pruned bucket ends the scan.
///  - **Phase 1: capped k-NN lists.** One bucket-pruned scan per point
///    collects its min(cap, n−1) nearest neighbors exactly — the same f32
///    order statistics a dense row selection yields — shrinking the prune
///    ceiling as the candidate heap fills. This serves every
///    kth_nn/kth_nn_many request up to the cap bitwise identically to the
///    matrix path.
///  - **Phase 2: prepared range queries.** prepare_within(eps, threads)
///    scans, across lanes, every point whose cache is incomplete at eps and
///    scores each unordered pair once: a point skips a lower-id partner
///    that is scanned too, and receives that pair in a `mirrored` array
///    filled after the lanes join. Both arrays are exactly sized and id
///    ordered, so neighbors_within(i, eps) merges and filters them — a
///    pure read. Below a point's completeness radius its phase-1 list
///    answers without any prepare; an unprepared epsilon beyond it is
///    answered by a local bucket scan that caches nothing. DBSCAN prepares
///    once per run, and the caches carry over across re-clustering sweeps.
///  - **Row queries.** dissimilarities(i, js, ceiling) visits the partners
///    bucket by bucket, skips every bucket whose length lower bound is
///    already >= ceiling and scores the rest in kernel batches at f32
///    storage precision, flushed at each bucket change so that full
///    sliding batches share one length (the kernel's lockstep path). It
///    keeps nothing: the refinement pass reads each pair at most once.
///
/// Everything is charged against ftc::mem (the sparse path is the matrix
/// rung of the degradation ladder: the pipeline builds it whenever the
/// O(n²) matrix would not fit the budget, DESIGN.md §11), progress is
/// published through the obs seqlock ("dissim.sparse" stage), and the
/// pairs-scored/pairs-skipped/buckets-pruned counters quantify the
/// reduction. Clustering output over a sparse source is byte-identical to
/// the dense path (tests/test_pipeline_sparse.cpp) because every value it
/// exposes is the value the matrix would have stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "dissim/neighborhood.hpp"
#include "mem/mem.hpp"
#include "util/byteio.hpp"
#include "util/stopwatch.hpp"

namespace ftc::dissim {

/// Construction knobs of sparse_neighborhood.
struct sparse_build_options {
    /// Neighbors retained per point (>= 1) — the k horizon kth_nn_many can
    /// serve. The pipeline passes cluster::knn_k_max(n).
    std::size_t knn_cap = 2;
    /// Worker lanes for the phase-1 build (0 = hardware concurrency).
    /// Per-point scans are independent, so the lists are bitwise identical
    /// at any thread count.
    std::size_t threads = 1;
};

/// Sparse neighborhood_source over capped per-point neighbor lists (file
/// comment above; interface contract in neighborhood.hpp). Does not own
/// \p values — they back the on-demand kernel scans and must outlive the
/// object (the pipeline keeps unique_segments alive for the whole run).
class sparse_neighborhood final : public neighborhood_source {
public:
    /// Phase-1 build: bucket the values, scan each point's capped k-NN list.
    /// Polls \p dl cooperatively from every lane.
    sparse_neighborhood(std::span<const byte_vector> values,
                        const sparse_build_options& opts, const deadline& dl = {});

    /// Adopt previously built lists (checkpoint resume). \p lists must
    /// cover exactly \p values — deep validation happened at decode time
    /// (ckpt::decode_neighbors); this checks the shape invariants.
    sparse_neighborhood(std::span<const byte_vector> values, capped_neighbors lists);

    std::size_t size() const override { return n_; }
    using neighborhood_source::dissimilarities;
    void dissimilarities(std::size_t i, std::span<const std::size_t> js, double ceiling,
                         std::span<double> out, row_counts& counts) const override;
    std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                double epsilon) const override;
    void prepare_within(double epsilon, std::size_t threads = 1) const override;
    std::size_t knn_cap() const override { return capped_.cap; }
    std::vector<double> kth_nn(std::size_t k, std::size_t threads = 1) const override;
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads = 1) const override;

    /// The phase-1 lists — what ftc::ckpt persists as the neighbors section.
    const capped_neighbors& capped() const { return capped_; }

    /// Kernel pairs actually scored so far (phase 1, prepares, local range
    /// scans and row queries); the bench's pair-reduction numerator.
    std::uint64_t pairs_scored() const {
        return pairs_scored_.load(std::memory_order_relaxed);
    }

    /// Number of length buckets the values fell into.
    std::size_t bucket_count() const { return bucket_len_.size(); }

    /// Conservative f32 lower bound of the sliding-Canberra dissimilarity
    /// of two segments given only their lengths: ((n−m)/n)² for m <= n,
    /// deflated by two float ulps so that float-narrowed kernel results can
    /// never fall below it (proof sketch in DESIGN.md §13). Exposed for the
    /// property tests.
    static float length_lower_bound(std::size_t len_a, std::size_t len_b);

private:
    /// Range-query cache of one point, exact for every epsilon <=
    /// complete_through; the point itself is never stored. Until a prepare
    /// covers the point, the phase-1 list is the cache (prepared == false)
    /// with completeness just below its largest stored distance. A prepare
    /// at epsilon fills both arrays, ids ascending, with every partner at
    /// d <= epsilon: `own` the pairs this point scored, `mirrored` those a
    /// lower-id point of the same prepare scored.
    struct range_cache {
        double complete_through = -1.0;
        bool prepared = false;
        std::vector<neighbor> own;
        std::vector<neighbor> mirrored;
    };

    void build_buckets();
    void build_lists(const sparse_build_options& opts, const deadline& dl);
    void seed_caches();
    double list_complete_through(std::size_t i) const;
    void charge_storage();
    /// Return \p points to their phase-1 lists; the bytes freed.
    std::uint64_t drop_caches(std::span<const std::uint32_t> points) const;

    /// Score i against every partner in the buckets whose length bound is
    /// <= epsilon, except where skip(j); append each pair at d <= epsilon
    /// to \p found. Returns the number of pairs scored.
    template <typename Skip>
    std::uint64_t scan_within(std::size_t i, double epsilon, Skip&& skip,
                              std::vector<neighbor>& found, kernel::stats* stp) const;

    template <typename Visit>
    std::pair<std::uint64_t, std::uint64_t> walk_buckets(std::size_t home,
                                                         std::size_t len,
                                                         Visit&& visit) const;

    std::span<const byte_vector> values_;
    std::size_t n_ = 0;

    // Length buckets: distinct lengths ascending, member ids grouped per
    // bucket (ascending within), and each point's home bucket.
    std::vector<std::size_t> bucket_len_;
    std::vector<std::uint32_t> bucket_begin_;  ///< bucket_count()+1 offsets
    std::vector<std::uint32_t> by_length_;
    std::vector<std::uint32_t> bucket_of_;

    capped_neighbors capped_;
    mutable std::vector<range_cache> cache_;

    mutable std::atomic<std::uint64_t> pairs_scored_{0};

    mem::charge lists_charge_;
    mutable mem::charge cache_charge_;  ///< own + mirrored arrays
};

}  // namespace ftc::dissim
