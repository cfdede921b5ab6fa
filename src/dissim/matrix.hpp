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
#include <functional>
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

/// Storage layout of the dissimilarity matrix.
enum class layout {
    dense,       ///< n*n floats, mirrored — fastest at(), the default
    triangular,  ///< n*(n-1)/2 floats, upper triangle only — half the bytes
};

/// Sink invoked with each completed tile of a tiled triangular build:
/// rows [row_begin, row_end) of the upper triangle as one contiguous cell
/// run. Tiles arrive in row order, exactly cover the triangle, and every
/// cell is final when its tile is announced — the checkpoint spill hook.
using tile_sink = std::function<void(std::size_t row_begin, std::size_t row_end,
                                     std::size_t n, std::span<const float> cells)>;

/// Construction knobs of dissimilarity_matrix.
struct build_options {
    layout storage = layout::dense;
    /// Worker lanes (0 = hardware concurrency, 1 = serial).
    std::size_t threads = 1;
    /// Triangular builds only: rows of the upper triangle per tile
    /// (0 = the whole triangle as one tile). Tiling bounds how much work a
    /// crash can lose when on_tile spills tiles to disk; it never changes
    /// any cell value.
    std::size_t tile_rows = 0;
    /// Called after each completed tile (triangular builds only).
    tile_sink on_tile;
};

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
/// §9), bitwise identical to the canberra.cpp reference. Because each
/// pair's value is the single-call kernel result regardless of how pairs
/// are batched or ordered, the dense and triangular layouts
/// hold bit-identical cell values — layout is a footprint knob, never a
/// result knob. Storage is tracked (ftc::mem), so the allocation charges
/// the active memory governor: the one place an oversized trace used to
/// OOM now raises ftc::memory_budget_exceeded_error instead.
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

    /// As above with full layout/tiling control. Triangular builds walk
    /// rows in plain index order tile by tile; dense builds keep the
    /// length-bucketed visit order (opts.tile_rows/on_tile ignored).
    dissimilarity_matrix(std::span<const byte_vector> values, const build_options& opts,
                         const deadline& dl = {});

    /// Build from a precomputed dense row-major n*n matrix — for callers
    /// with their own dissimilarity measure (and for tests). Throws unless
    /// the input is square, symmetric and zero on the diagonal.
    static dissimilarity_matrix from_dense(std::span<const double> dense, std::size_t n);

    /// Rebuild from an upper-triangle float dump in (i, j > i) row order —
    /// the checkpoint wire form (ftc::ckpt) — into the requested layout.
    /// The exact float bit patterns are restored (both triangles mirrored
    /// for dense, verbatim for triangular), so a matrix round-tripped
    /// through upper_triangle_f32()/from_upper is bitwise identical to the
    /// original whatever the layouts involved. Throws unless \p upper holds
    /// exactly n*(n-1)/2 entries, each finite and in [0, 1].
    static dissimilarity_matrix from_upper(std::span<const float> upper, std::size_t n,
                                           layout storage = layout::dense);

    /// The upper triangle (i < j, row order) as raw floats — the lossless
    /// counterpart of upper_triangle() used by checkpoint serialization.
    std::vector<float> upper_triangle_f32() const;

    std::size_t size() const { return n_; }

    /// How the cells are stored (result-neutral; see class comment).
    layout storage() const { return layout_; }

    /// Dissimilarity between values i and j (0 on the diagonal).
    double at(std::size_t i, std::size_t j) const {
        if (layout_ == layout::dense) {
            return data_[i * n_ + j];
        }
        if (i == j) {
            return 0.0;
        }
        return i < j ? data_[tri_cell(i, j)] : data_[tri_cell(j, i)];
    }

    /// Row \p i's size() cells in column order, diagonal included: a view
    /// of the dense storage, or the triangular cells gathered into
    /// \p scratch (size() floats), which is then returned.
    const float* row(std::size_t i, float* scratch) const;

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
    /// equality of matrices built at different thread counts. Dense
    /// layout only; triangular storage is reached via upper_triangle_f32.
    std::span<const float> data() const;

private:
    dissimilarity_matrix() = default;

    /// Cells of upper-triangle rows before row \p i (row r holds n-1-r).
    std::size_t tri_offset(std::size_t i) const {
        return i * (n_ - 1) - i * (i - 1) / 2;
    }

    /// Flat index of cell (i, j), i < j, in triangular storage.
    std::size_t tri_cell(std::size_t i, std::size_t j) const {
        return tri_offset(i) + (j - i - 1);
    }

    /// The n-1 off-diagonal entries of row \p i, in column order, into
    /// \p out — the layout-agnostic row scan behind the k-NN paths.
    void gather_row(std::size_t i, float* out) const;

    void build_dense(std::span<const byte_vector> values, const deadline& dl,
                     std::size_t threads);
    void build_triangular(std::span<const byte_vector> values, const build_options& opts,
                          const deadline& dl);

    std::size_t n_ = 0;
    layout layout_ = layout::dense;
    mem::vector<float> data_;
};

}  // namespace ftc::dissim
