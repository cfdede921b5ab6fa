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
#include <span>
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
/// memory-degraded multiplicities). v3: ids 7 and 8 (spilled tiles of a
/// triangular build) are retired.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Section type tags. Ids 4 (dissimilarity matrix) and 5 (k-NN curves) are
/// retired like 7 and 8 and are never reused: both are pure functions of
/// the unique segments, cheaper to recompute than to load. Loaders find
/// sections by id, so an older file that still carries one is read as if
/// it did not.
enum class section_id : std::uint32_t {
    fingerprint = 1,  ///< options + input digests (first section, mandatory)
    segments = 2,     ///< surviving indices + message segmentation
    unique = 3,       ///< condensed unique segments
    clustering = 6,   ///< auto-configuration + DBSCAN outcome
    neighbors = 9,    ///< capped sparse neighbor lists (sparse engine)
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

/// Exact size of the file image encode_sections builds around payloads of
/// \p payload_bytes bytes each. With the payload sizes below, a writer
/// projects a snapshot against the memory governor before encoding it.
std::uint64_t file_bytes(std::span<const std::uint64_t> payload_bytes);

/// Parse and digest-verify a checkpoint file image. Throws ftc::parse_error
/// on bad magic, unknown version, truncation, or a section whose payload
/// does not match its recorded digest.
std::vector<section> decode_sections(byte_view file);

// ---------------------------------------------------------------------------
// Section payload codecs (each decoder throws ftc::parse_error on malformed
// input; each X_bytes is the exact size of what encode_X returns)
// ---------------------------------------------------------------------------

/// Exact size of encode_fingerprint's payload.
inline constexpr std::uint64_t kFingerprintBytes = 16;
byte_vector encode_fingerprint(const options_fingerprint& fp);
options_fingerprint decode_fingerprint(byte_view payload);

/// Segmentation snapshot: the lenient-ingestion surviving-message indices
/// plus the segmentation of those surviving messages.
struct segments_payload {
    std::vector<std::size_t> surviving;
    segmentation::message_segments segments;
};

std::uint64_t segments_bytes(const segments_payload& p);
byte_vector encode_segments(const segments_payload& p);
segments_payload decode_segments(byte_view payload);

std::uint64_t unique_bytes(const dissim::unique_segments& unique);
byte_vector encode_unique(const dissim::unique_segments& unique);
dissim::unique_segments decode_unique(byte_view payload);

/// Capped sparse neighbor lists (dissim::capped_neighbors): the persistable
/// substrate of a sparse_neighborhood. Ids and distances travel as u32/f32
/// bit patterns, so an adopted resume serves bitwise the values a fresh
/// build would. The decoder enforces every structural invariant the sparse
/// engine relies on: list length min(cap, n-1), ids in range and never the
/// point itself, distances in [0, 1], ascending (d, id) order.
std::uint64_t neighbors_bytes(const dissim::capped_neighbors& neighbors);
byte_vector encode_neighbors(const dissim::capped_neighbors& neighbors);
dissim::capped_neighbors decode_neighbors(byte_view payload);

/// Clustering snapshot. k_candidate diagnostics are not persisted: nothing
/// downstream of clustering consumes them (they exist for tests and the
/// Fig. 2 bench), and they would multiply the file size.
std::uint64_t clustering_bytes(const cluster::auto_cluster_result& clustering);
byte_vector encode_clustering(const cluster::auto_cluster_result& clustering);
cluster::auto_cluster_result decode_clustering(byte_view payload);

}  // namespace ftc::ckpt
