/// \file format.hpp
/// The ftclust checkpoint wire format (ftc::ckpt).
///
/// A checkpoint file is a digest-verified container of typed sections:
///
///   magic "FTCKPT01" (8 bytes)
///   format version   (u32 le)
///   section count    (u32 le)
///   per section:  id (u32 le), payload size (u64 le),
///                 FNV-1a64 digest of the payload (u64 le), payload bytes
///
/// All integers are little-endian; doubles and floats travel as their IEEE
/// bit patterns (u64/u32 le), so a round trip restores the exact bits and a
/// resumed run can be bitwise identical to an uninterrupted one. Every
/// decoder is bounds-checked and throws ftc::parse_error on damage —
/// arbitrary bytes must never crash a loader (see fuzz_ckpt_load).
///
/// The first section of every file is the *fingerprint*: a digest of the
/// pipeline options that shape stage outputs plus a digest of the raw input
/// bytes. A checkpoint whose fingerprint does not match the current run is
/// rejected wholesale — resuming segment state of trace A into a run over
/// trace B would silently corrupt results. Thread counts and resource
/// budgets are deliberately NOT part of the fingerprint: every
/// stage is bitwise deterministic across those, so resuming on a different
/// machine shape is exactly the supported use case.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/autoconf.hpp"
#include "core/pipeline.hpp"
#include "dissim/matrix.hpp"
#include "dissim/neighborhood.hpp"
#include "segmentation/segment.hpp"
#include "util/byteio.hpp"

namespace ftc::ckpt {

/// File magic, first 8 bytes of every checkpoint file.
inline constexpr char kMagic[8] = {'F', 'T', 'C', 'K', 'P', 'T', '0', '1'};

/// Bumped on any incompatible layout change; loaders reject other versions.
/// v2: unique payload gains a leading form byte (full occurrences vs.
/// memory-degraded multiplicities), and a tiled triangular matrix build may
/// replace the matrix section with a matrix_tiled marker plus one
/// matrix_tile_<k>.ckpt file per spilled tile.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Section type tags.
enum class section_id : std::uint32_t {
    fingerprint = 1,   ///< options + input digests (first section, mandatory)
    segments = 2,      ///< surviving indices + message segmentation
    unique = 3,        ///< condensed unique segments
    matrix = 4,        ///< dissimilarity matrix upper triangle (f32)
    knn = 5,           ///< batched k-NN curves for the epsilon sweep
    clustering = 6,    ///< auto-configuration + DBSCAN outcome
    matrix_tile = 7,   ///< one spilled tile of a tiled triangular build
    matrix_tiled = 8,  ///< marker: matrix lives in matrix_tile_<k>.ckpt files
    neighbors = 9,     ///< capped sparse neighbor lists (sparse mode)
};

/// One decoded section: tag plus raw (digest-verified) payload.
struct section {
    std::uint32_t id = 0;
    byte_vector payload;
};

/// Identity of a run for resume purposes: what was analyzed (input_digest,
/// FNV-1a64 of the raw capture bytes) and with which result-shaping options
/// (options_digest over a canonical serialization of pipeline options and
/// the segmenter name).
struct options_fingerprint {
    std::uint64_t options_digest = 0;
    std::uint64_t input_digest = 0;

    bool operator==(const options_fingerprint&) const = default;
};

/// Digest the result-shaping pipeline options (+ segmenter name) into a
/// fingerprint. Excludes threads, budgets and the observer pointer: they
/// change how fast a run finishes, never what it computes.
options_fingerprint fingerprint(const core::pipeline_options& options,
                                std::string_view segmenter_name,
                                std::uint64_t input_digest);

// ---------------------------------------------------------------------------
// Container encode/decode
// ---------------------------------------------------------------------------

/// Serialize sections into one checkpoint file image (header + digests).
byte_vector encode_sections(const std::vector<section>& sections);

/// Parse and digest-verify a checkpoint file image. Throws ftc::parse_error
/// on bad magic, unknown version, truncation, or a section whose payload
/// does not match its recorded digest.
std::vector<section> decode_sections(byte_view file);

// ---------------------------------------------------------------------------
// Section payload codecs (each throws ftc::parse_error on malformed input)
// ---------------------------------------------------------------------------

byte_vector encode_fingerprint(const options_fingerprint& fp);
options_fingerprint decode_fingerprint(byte_view payload);

/// Segmentation snapshot: the lenient-ingestion surviving-message indices
/// plus the segmentation of those surviving messages.
struct segments_payload {
    std::vector<std::size_t> surviving;
    segmentation::message_segments segments;
};

byte_vector encode_segments(const segments_payload& p);
segments_payload decode_segments(byte_view payload);

byte_vector encode_unique(const dissim::unique_segments& unique);
dissim::unique_segments decode_unique(byte_view payload);

/// Matrix travels as its upper triangle in f32 (the storage precision), so
/// the restored matrix is bitwise identical to the saved one — whatever
/// layout either side used. The decoder picks the in-memory layout by
/// projecting the dense footprint against the active ftc::mem governor:
/// a resume under the same memory pressure that forced the triangular
/// build restores into the triangular layout again.
byte_vector encode_matrix(const dissim::dissimilarity_matrix& matrix);
dissim::dissimilarity_matrix decode_matrix(byte_view payload);

/// One spilled tile of a tiled triangular matrix build: upper-triangle rows
/// [row_begin, row_end) of an n-element matrix as a contiguous cell run
/// (dissim::tile_sink semantics).
struct matrix_tile_payload {
    std::uint64_t row_begin = 0;
    std::uint64_t row_end = 0;
    std::uint64_t n = 0;
    std::vector<float> cells;
};

byte_vector encode_matrix_tile(const matrix_tile_payload& tile);
matrix_tile_payload decode_matrix_tile(byte_view payload);

/// Marker replacing the matrix section when tiles were spilled: the matrix
/// is reassembled from `tile_count` matrix_tile_<k>.ckpt files.
struct matrix_tiled_marker {
    std::uint64_t n = 0;
    std::uint64_t tile_count = 0;
};

byte_vector encode_matrix_tiled(const matrix_tiled_marker& marker);
matrix_tiled_marker decode_matrix_tiled(byte_view payload);

byte_vector encode_knn(const std::vector<std::vector<double>>& curves);
std::vector<std::vector<double>> decode_knn(byte_view payload);

/// Capped sparse neighbor lists (dissim::capped_neighbors): the persistable
/// substrate of a sparse_neighborhood. Ids and distances travel as u32/f32
/// bit patterns, so an adopted resume serves bitwise the values a fresh
/// build would. The decoder enforces every structural invariant the sparse
/// engine relies on: list length min(cap, n-1), ids in range and never the
/// point itself, distances in [0, 1], ascending (d, id) order.
byte_vector encode_neighbors(const dissim::capped_neighbors& neighbors);
dissim::capped_neighbors decode_neighbors(byte_view payload);

/// Clustering snapshot. k_candidate diagnostics are not persisted: nothing
/// downstream of clustering consumes them (they exist for tests and the
/// Fig. 2 bench), and they would multiply the file size.
byte_vector encode_clustering(const cluster::auto_cluster_result& clustering);
cluster::auto_cluster_result decode_clustering(byte_view payload);

}  // namespace ftc::ckpt
