/// \file neighborhood.hpp
/// The epsilon-neighborhood abstraction between the dissimilarity layer and
/// the clustering layer (DESIGN.md §13).
///
/// DBSCAN, the epsilon auto-configuration and the refinement pass never need
/// the full pairwise matrix — they consume three queries: "who is within
/// epsilon of i", "the k-th-nearest-neighbour curve", and "the dissimilarities
/// of i to these partners, where they may lie below a ceiling". DBSCAN
/// announces its epsilon first (prepare_within), so a source can do all of
/// a run's range work up front and serve the range queries as pure reads.
/// neighborhood_source names exactly that contract so the clustering layer
/// can run against either backing store:
///
///  - matrix_neighborhood wraps the existing dense/triangular
///    dissimilarity_matrix. Its prepare marks each row's cells within
///    epsilon as a bit row on the caller's lanes, re-testing only the set
///    bits when epsilon shrinks, so DBSCAN's expansion reads words
///    instead of rows; every other query reads stored cells.
///  - sparse_neighborhood (sparse.hpp) answers them from capped per-point
///    neighbor lists plus bucket-pruned scans, never materializing the
///    O(n²) matrix.
///
/// Contract (every implementation, verified by tests/test_dissim_sparse.cpp;
/// expand_within by tests/test_cluster_dbscan.cpp):
///  - dissimilarities(i, js, ceiling, out) writes, for every partner whose
///    value could lie below ceiling, the value the matrix cell would hold:
///    the kernel result narrowed to f32 storage precision and widened back,
///    so both sources are bitwise interchangeable. A partner whose value is
///    provably >= ceiling may come back as +inf without being scored.
///  - neighbors_within(i, eps) returns every j (including i itself, distance
///    zero) whose matrix cell is <= eps, ids ascending — the exact
///    neighbor set DBSCAN's row scan produces, in the same order, so the
///    BFS expansion and therefore the labels are identical. The answer
///    does not depend on whether or at which epsilon prepare_within ran.
///  - expand_within(i, eps, min_count, skip, fresh) returns
///    |neighbors_within(i, eps)| and, when that is >= min_count, appends
///    the ids of that set missing from the skip bitset to fresh, ascending
///    — exactly what the default built on neighbors_within does, whether
///    or at which epsilon prepare_within ran.
///  - kth_nn / kth_nn_many return the same doubles the matrix extraction
///    yields, for every k up to knn_cap(); beyond the cap they throw
///    knn_cap_error (typed, so the caller can distinguish "this source
///    cannot serve k" from a malformed request).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "dissim/matrix.hpp"
#include "mem/mem.hpp"
#include "util/error.hpp"

namespace ftc::dissim {

/// A k-NN request exceeded the horizon a neighborhood source retained
/// (sparse sources keep only knn_cap() neighbors per point). Derives from
/// precondition_error: the fix is on the caller — request fewer neighbors
/// or build the source with a larger cap.
class knn_cap_error : public precondition_error {
public:
    using precondition_error::precondition_error;
};

/// One stored neighbor: partner id and the f32 dissimilarity exactly as a
/// matrix cell would store it.
struct neighbor {
    std::uint32_t id = 0;
    float d = 0.0f;
};

/// Per-point sorted neighbor lists capped at a k horizon — the persistable
/// substrate of a sparse_neighborhood (checkpoint section `neighbors`).
/// lists[i] holds point i's min(cap, n-1) nearest neighbors ascending by
/// (d, id), excluding i itself; the values are the same f32 order
/// statistics a dense matrix row scan yields.
struct capped_neighbors {
    std::uint32_t cap = 0;
    std::vector<std::vector<neighbor>> lists;

    std::size_t size() const { return lists.size(); }
};

/// Which neighborhood construction the pipeline uses (--neighborhood).
/// Result-neutral by construction — both paths produce byte-identical
/// cluster reports — so the mode is deliberately NOT part of the checkpoint
/// fingerprint, exactly like thread counts.
enum class neighborhood_mode {
    dense,   ///< always build the full dissimilarity matrix
    sparse,  ///< always build capped neighbor lists (ftc::dissim::sparse)
    auto_,   ///< sparse at scale (>= auto threshold uniques), dense below
};

/// Unique-segment count at which neighborhood_mode::auto_ switches to the
/// sparse engine. Below it the dense matrix is small enough that the O(n²)
/// build is not the bottleneck and its unlimited k horizon keeps every
/// legacy path available.
inline constexpr std::size_t kSparseAutoUniques = 4096;

/// Stable lower-case name ("dense", "sparse", "auto").
const char* neighborhood_mode_name(neighborhood_mode mode);

/// Parse a --neighborhood value; throws ftc::precondition_error on anything
/// but "dense", "sparse" or "auto".
neighborhood_mode parse_neighborhood_mode(std::string_view text);

/// The epsilon-neighborhood queries the clustering layer consumes (contract
/// in the file comment). Every query is a pure read and safe to call from
/// several threads at once. prepare_within is the one call that writes
/// behind the interface; it must not overlap any other call on the source.
class neighborhood_source {
public:
    virtual ~neighborhood_source() = default;

    /// Number of points (unique segment values).
    virtual std::size_t size() const = 0;

    /// Row query: out[k] = d(i, js[k]) at f32 storage precision, widened to
    /// double, for every partner whose value could lie below \p ceiling;
    /// 0 where js[k] == i. A partner whose value is provably >= ceiling may
    /// come back as +inf without being scored, so ceiling = +inf scores
    /// every partner. out.size() must equal js.size().
    virtual void dissimilarities(std::size_t i, std::span<const std::size_t> js,
                                 double ceiling, std::span<double> out) const = 0;

    /// Every j (including i itself) with d(i, j) <= epsilon, ids ascending.
    virtual std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                        double epsilon) const = 0;

    /// DBSCAN's expansion step: returns |neighbors_within(i, epsilon)|
    /// and, when it is >= \p min_count, appends every id of that set whose
    /// bit in \p skip (one bit per point, (size() + 63) / 64 words) is
    /// clear to \p fresh, ids ascending. The default filters
    /// neighbors_within; a source may answer from prepared state instead.
    virtual std::size_t expand_within(std::size_t i, double epsilon, std::size_t min_count,
                                      std::span<const std::uint64_t> skip,
                                      std::vector<std::uint32_t>& fresh) const;

    /// Do the range work neighbors_within and expand_within need at
    /// \p epsilon, on \p threads lanes (0 = hardware concurrency), so that
    /// those queries only read. Logically const: no answer changes.
    /// cluster::dbscan calls it once per run.
    virtual void prepare_within(double epsilon, std::size_t threads = 1) const = 0;

    /// Largest k kth_nn/kth_nn_many can serve (requests are clamped to
    /// size()-1 first, so a cap >= size()-1 means unlimited).
    virtual std::size_t knn_cap() const = 0;

    /// Per-point k-th-nearest-neighbor dissimilarity (semantics of
    /// dissimilarity_matrix::kth_nn). Throws knn_cap_error when the clamped
    /// k exceeds knn_cap().
    virtual std::vector<double> kth_nn(std::size_t k, std::size_t threads = 1) const = 0;

    /// All curves k = 1..k_max in one batch (semantics of
    /// dissimilarity_matrix::kth_nn_many). Throws knn_cap_error when the
    /// clamped k_max exceeds knn_cap().
    virtual std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                         std::size_t threads = 1) const = 0;
};

/// neighborhood_source over a prebuilt dense/triangular matrix: every query
/// forwards to the stored cells, except expand_within at the prepared
/// epsilon, which reads the bit rows. Does not own the matrix; it must
/// outlive the adapter.
class matrix_neighborhood final : public neighborhood_source {
public:
    explicit matrix_neighborhood(const dissimilarity_matrix& matrix) : matrix_(matrix) {}

    std::size_t size() const override { return matrix_.size(); }

    /// Reads every cell; the ceiling prunes nothing.
    void dissimilarities(std::size_t i, std::span<const std::size_t> js, double ceiling,
                         std::span<double> out) const override;

    /// The row scan, from the cells whatever was prepared.
    std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                double epsilon) const override;

    /// At the prepared epsilon: the row's popcount for the core test, then
    /// row & ~skip word by word. Otherwise the default.
    std::size_t expand_within(std::size_t i, double epsilon, std::size_t min_count,
                              std::span<const std::uint64_t> skip,
                              std::vector<std::uint32_t>& fresh) const override;

    /// Mark every row's cells <= epsilon as bits, one lane per row range.
    /// Below the prepared epsilon only the set bits are re-tested (the
    /// neighbor sets shrink); above it the rows are scanned again; at it
    /// nothing happens. The rows are allocated once, tracked; when they
    /// would exceed the memory budget nothing is prepared and expand_within
    /// keeps the default.
    void prepare_within(double epsilon, std::size_t threads = 1) const override;

    /// A matrix row holds every neighbor, so any clamped k is servable.
    std::size_t knn_cap() const override { return matrix_.size(); }

    std::vector<double> kth_nn(std::size_t k, std::size_t threads = 1) const override {
        return matrix_.kth_nn(k, threads);
    }

    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads = 1) const override {
        return matrix_.kth_nn_many(k_max, threads);
    }

private:
    const dissimilarity_matrix& matrix_;
    /// (size() + 63) / 64 words per bit row.
    std::size_t words_ = (matrix_.size() + 63) / 64;
    /// Row i's words at [i * words_, (i + 1) * words_): bit j set iff
    /// at(i, j) <= prepared_epsilon_; bits past size() stay clear.
    mutable mem::vector<std::uint64_t> bits_;
    /// Set bits per row, i itself included.
    mutable mem::vector<std::uint32_t> counts_;
    mutable bool prepared_ = false;
    mutable double prepared_epsilon_ = 0.0;
};

}  // namespace ftc::dissim
