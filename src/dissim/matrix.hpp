/// \file matrix.hpp
/// Unique-segment condensation and the pairwise dissimilarity matrix D
/// (paper Sec. III-C).
///
/// The clustering pipeline analyzes *unique* segment values of at least two
/// bytes: one-byte segments are excluded (coincidental similarity of
/// arbitrary single bytes), and duplicate values are considered once. The
/// condensation keeps the mapping back to every concrete occurrence so that
/// evaluation metrics and coverage can be computed over the full trace —
/// unless memory pressure forces the weighted form (condense_weighted),
/// which keeps only per-value multiplicities (see DESIGN.md §11).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/mem.hpp"
#include "segmentation/segment.hpp"
#include "util/byteio.hpp"
#include "util/stopwatch.hpp"

namespace ftc::dissim {

/// Unique segment values with their occurrences (full form) or per-value
/// multiplicities (weighted form, occurrences elided under memory pressure).
/// Either way `values` is the same vector in the same first-occurrence
/// order, so everything downstream of it — the matrix, the k-NN curves, the
/// clustering labels — is bitwise identical across the two forms.
struct unique_segments {
    /// Distinct segment values (each at least min_length bytes).
    std::vector<byte_vector> values;
    /// For each value, every concrete segment carrying it. Empty in the
    /// weighted form — the occurrence lists are exactly what the weighted
    /// form exists to not materialize.
    std::vector<std::vector<segmentation::segment>> occurrences;
    /// Per-value occurrence counts in the weighted form (empty otherwise).
    std::vector<std::uint32_t> multiplicities;
    /// True when this is the weighted form: occurrence *counts* survive
    /// (refinement weights, report columns, coverage), the per-occurrence
    /// (message, offset) mapping does not (ground-truth evaluation and the
    /// position-sensitive semantics rules need the full form).
    bool occurrences_elided = false;
    /// Segments skipped because they were shorter than min_length.
    std::size_t short_segments = 0;
    /// Tracked footprint of the value/occurrence storage (ftc::mem), so the
    /// memory governor sees this stage's contribution for its lifetime.
    mem::charge footprint;

    std::size_t size() const { return values.size(); }

    /// Occurrences of value \p i across the trace, valid in both forms.
    std::size_t occurrence_count(std::size_t i) const {
        return occurrences_elided ? multiplicities[i] : occurrences[i].size();
    }

    /// Concrete segments across all values (the pre-condensation count
    /// minus short_segments).
    std::size_t total_occurrences() const {
        std::size_t total = 0;
        for (std::size_t i = 0; i < size(); ++i) {
            total += occurrence_count(i);
        }
        return total;
    }
};

/// Condense a segmentation into unique segment values.
/// \p min_length excludes short segments (paper: 2, i.e. one-byte segments
/// are dropped).
unique_segments condense(const std::vector<byte_vector>& messages,
                         const segmentation::message_segments& segs,
                         std::size_t min_length = 2);

/// Memory-lean condensation: digest-indexed dedup that records how *often*
/// each value occurs but not *where* — the per-occurrence segment lists
/// (24 bytes each, one per concrete segment in the trace) are the
/// footprint-dominant part of the full form. Produces `values` bitwise
/// identical to condense() in the identical first-occurrence order (both
/// assign indices at first sight of a value), so clustering output is
/// provably unchanged; only occurrence-position consumers degrade.
unique_segments condense_weighted(const std::vector<byte_vector>& messages,
                                  const segmentation::message_segments& segs,
                                  std::size_t min_length = 2);

/// Symmetric matrix of pairwise sliding-Canberra dissimilarities.
/// Every entry is in [0, 1] (the range guarantee of the sliding-Canberra
/// measure, canberra.hpp) with an exactly-zero diagonal.
///
/// Construction and k-NN extraction accept a worker-thread count
/// (0 = hardware concurrency, 1 = the legacy serial path). Both are pure
/// fan-outs over independent entries — every (i, j) pair is computed by
/// exactly one lane and written to locations no other lane touches — so
/// the result is bitwise identical at any thread count. Pairs are
/// evaluated through kernel::batcher (kernel.hpp; numerics in DESIGN.md
/// §9), bitwise identical to the canberra.cpp reference however pairs are
/// batched or ordered. Storage is n*n floats, mirrored, and tracked
/// (ftc::mem), so the allocation charges the active memory governor; the
/// pipeline projects it first and builds the sparse engine instead when
/// it would not fit (DESIGN.md §11).
class dissimilarity_matrix {
public:
    /// Compute all pairwise dissimilarities on \p threads lanes
    /// (row-blocked upper-triangle fan-out, partners visited in
    /// length-bucketed order so equal-length pairs take the fast
    /// equal-length kernel path). Polls \p dl cooperatively from every
    /// lane. O(n²) kernel calls, each O(m·(n−m+1)) worst case before
    /// early-exit pruning (DESIGN.md §9); O(n²) floats of storage.
    explicit dissimilarity_matrix(std::span<const byte_vector> values,
                                  const deadline& dl = {}, std::size_t threads = 1);

    /// Build from a precomputed dense row-major n*n matrix — for callers
    /// with their own dissimilarity measure (and for tests). Throws unless
    /// the input is square, symmetric and zero on the diagonal.
    static dissimilarity_matrix from_dense(std::span<const double> dense, std::size_t n);

    std::size_t size() const { return n_; }

    /// Dissimilarity between values i and j (0 on the diagonal).
    double at(std::size_t i, std::size_t j) const { return data_[i * n_ + j]; }

    /// Row \p i's size() cells in column order, diagonal included: a view
    /// of the storage.
    const float* row(std::size_t i) const { return data_.data() + i * n_; }

    /// For every element, the dissimilarity to its k-th nearest neighbour
    /// (k >= 1; k is clamped to n-1). Result has size() entries. Rows are
    /// independent, so \p threads lanes may extract them concurrently.
    /// O(n²) per call (one full row scan + selection per element).
    std::vector<double> kth_nn(std::size_t k, std::size_t threads = 1) const;

    /// kth_nn for every k in 1..k_max from a single row scan: result[k-1]
    /// is bitwise identical to kth_nn(k) (the k-th order statistic of a
    /// row does not depend on how it is selected), but the whole batch
    /// costs one O(n²) pass instead of k_max of them — the epsilon
    /// auto-configuration sweep (cluster/autoconf.cpp) is the consumer.
    /// Empty inner vectors when the matrix has fewer than 2 elements.
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads = 1) const;

    /// All pairwise dissimilarities (i < j), unsorted.
    std::vector<double> upper_triangle() const;

    /// Raw row-major storage (n*n floats) — lets tests assert bitwise
    /// equality of matrices built at different thread counts.
    std::span<const float> data() const { return {data_.data(), data_.size()}; }

private:
    dissimilarity_matrix() = default;

    /// The n-1 off-diagonal entries of row \p i, in column order, into
    /// \p out — the row scan behind the k-NN paths.
    void gather_row(std::size_t i, float* out) const;

    std::size_t n_ = 0;
    mem::vector<float> data_;
};

}  // namespace ftc::dissim
