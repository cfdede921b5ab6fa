#include "ckpt/format.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"

namespace ftc::ckpt {

namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 4;        // magic + version + count
constexpr std::size_t kSectionHeaderSize = 4 + 8 + 8;  // id + size + digest

void put_f64(byte_vector& out, double v) {
    put_u64_le(out, std::bit_cast<std::uint64_t>(v));
}

void put_f32(byte_vector& out, float v) {
    put_u32_le(out, std::bit_cast<std::uint32_t>(v));
}

/// Cursor over a payload with overflow-safe bounds checks: every read
/// validates against the bytes actually present, so a forged count can at
/// worst raise parse_error, never index out of bounds or balloon memory
/// (allocations are bounded by the payload size that backs them).
class reader {
public:
    explicit reader(byte_view data) : data_(data) {}

    std::uint8_t u8() { return get_u8(data_, take(1)); }
    std::uint32_t u32() { return get_u32_le(data_, take(4)); }
    std::uint64_t u64() { return get_u64_le(data_, take(8)); }
    double f64() { return std::bit_cast<double>(u64()); }
    float f32() { return std::bit_cast<float>(u32()); }

    byte_view bytes(std::size_t n) { return get_slice(data_, take(n), n); }

    /// A count of elements each at least \p elem_size bytes on the wire;
    /// rejects counts the remaining payload cannot possibly hold *before*
    /// any allocation sized by them.
    std::size_t count(std::size_t elem_size) {
        const std::uint64_t n = u64();
        if (elem_size == 0 || n > remaining() / elem_size) {
            throw parse_error(message("ckpt: element count ", n, " exceeds remaining payload ",
                                      remaining(), " bytes"));
        }
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return data_.size() - offset_; }

    void expect_end() const {
        if (offset_ != data_.size()) {
            throw parse_error(message("ckpt: ", remaining(), " trailing bytes in section"));
        }
    }

private:
    std::size_t take(std::size_t n) {
        if (n > remaining()) {
            throw parse_error(message("ckpt: truncated section (need ", n, " bytes at offset ",
                                      offset_, ", have ", remaining(), ")"));
        }
        const std::size_t at = offset_;
        offset_ += n;
        return at;
    }

    byte_view data_;
    std::size_t offset_ = 0;
};

}  // namespace

options_fingerprint fingerprint(const core::pipeline_options& options,
                                std::string_view segmenter_name,
                                std::uint64_t input_digest) {
    // Canonical serialization of every knob that shapes stage outputs.
    // Appending new knobs to the END keeps old checkpoints rejectable (the
    // digest changes) rather than silently misinterpreted.
    byte_vector canon;
    put_chars(canon, "ftclust-options-v1");
    put_u64_le(canon, options.min_segment_length);
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.autoconf.kneedle_sensitivity));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.autoconf.smoothing_lambda));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.autoconf.fallback_epsilon));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.refine.eps_rho_threshold));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.refine.neighbor_density_threshold));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.refine.percent_rank_threshold));
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.refine.max_merged_fraction));
    put_u8(canon, options.apply_refinement ? 1 : 0);
    put_u64_le(canon, std::bit_cast<std::uint64_t>(options.oversize_fraction));
    put_chars(canon, segmenter_name);
    return {obs::fnv1a64(canon.data(), canon.size()), input_digest};
}

std::uint64_t file_bytes(std::span<const std::uint64_t> payload_bytes) {
    std::uint64_t bytes = kHeaderSize;
    for (const std::uint64_t payload : payload_bytes) {
        bytes += kSectionHeaderSize + payload;
    }
    return bytes;
}

byte_vector encode_sections(const std::vector<section>& sections) {
    // Exact capacity: writers charge the image's size to the governor, so
    // growth slack would be untracked memory.
    std::vector<std::uint64_t> sizes;
    for (const section& s : sections) {
        sizes.push_back(s.payload.size());
    }
    byte_vector out;
    out.reserve(static_cast<std::size_t>(file_bytes(sizes)));
    for (char c : kMagic) {
        put_u8(out, static_cast<std::uint8_t>(c));
    }
    put_u32_le(out, kFormatVersion);
    put_u32_le(out, static_cast<std::uint32_t>(sections.size()));
    for (const section& s : sections) {
        put_u32_le(out, s.id);
        put_u64_le(out, s.payload.size());
        put_u64_le(out, obs::fnv1a64(s.payload.data(), s.payload.size()));
        put_bytes(out, s.payload);
    }
    return out;
}

std::vector<section> decode_sections(byte_view file) {
    if (file.size() < kHeaderSize) {
        throw parse_error("ckpt: file shorter than header");
    }
    if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
        throw parse_error("ckpt: bad magic (not a ftclust checkpoint)");
    }
    const std::uint32_t version = get_u32_le(file, 8);
    if (version != kFormatVersion) {
        throw parse_error(message("ckpt: unsupported format version ", version, " (expected ",
                                  kFormatVersion, ")"));
    }
    const std::uint32_t count = get_u32_le(file, 12);
    std::vector<section> out;
    std::size_t offset = kHeaderSize;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (file.size() - offset < kSectionHeaderSize) {
            throw parse_error(message("ckpt: truncated section header ", i));
        }
        section s;
        s.id = get_u32_le(file, offset);
        const std::uint64_t size = get_u64_le(file, offset + 4);
        const std::uint64_t digest = get_u64_le(file, offset + 12);
        offset += kSectionHeaderSize;
        if (size > file.size() - offset) {
            throw parse_error(
                message("ckpt: section ", i, " claims ", size, " payload bytes, file has ",
                        file.size() - offset, " left"));
        }
        const byte_view payload = file.subspan(offset, static_cast<std::size_t>(size));
        offset += static_cast<std::size_t>(size);
        if (obs::fnv1a64(payload.data(), payload.size()) != digest) {
            throw parse_error(message("ckpt: section ", i, " (id ", s.id,
                                      ") digest mismatch — file damaged"));
        }
        s.payload.assign(payload.begin(), payload.end());
        out.push_back(std::move(s));
    }
    if (offset != file.size()) {
        throw parse_error(message("ckpt: ", file.size() - offset, " trailing bytes after last "
                                  "section"));
    }
    return out;
}

// ---------------------------------------------------------------------------
// fingerprint
// ---------------------------------------------------------------------------

byte_vector encode_fingerprint(const options_fingerprint& fp) {
    byte_vector out;
    put_u64_le(out, fp.options_digest);
    put_u64_le(out, fp.input_digest);
    return out;
}

options_fingerprint decode_fingerprint(byte_view payload) {
    reader r(payload);
    options_fingerprint fp;
    fp.options_digest = r.u64();
    fp.input_digest = r.u64();
    r.expect_end();
    return fp;
}

// ---------------------------------------------------------------------------
// segments
// ---------------------------------------------------------------------------

namespace {

void put_segment(byte_vector& out, const segmentation::segment& seg) {
    put_u64_le(out, seg.message_index);
    put_u64_le(out, seg.offset);
    put_u64_le(out, seg.length);
}

segmentation::segment read_segment(reader& r) {
    segmentation::segment seg;
    seg.message_index = static_cast<std::size_t>(r.u64());
    seg.offset = static_cast<std::size_t>(r.u64());
    seg.length = static_cast<std::size_t>(r.u64());
    return seg;
}

}  // namespace

std::uint64_t segments_bytes(const segments_payload& p) {
    std::uint64_t bytes = 8 + 8 * p.surviving.size() + 8;
    for (const std::vector<segmentation::segment>& per_message : p.segments) {
        bytes += 8 + 24 * per_message.size();
    }
    return bytes;
}

byte_vector encode_segments(const segments_payload& p) {
    byte_vector out;
    out.reserve(static_cast<std::size_t>(segments_bytes(p)));
    put_u64_le(out, p.surviving.size());
    for (std::size_t idx : p.surviving) {
        put_u64_le(out, idx);
    }
    put_u64_le(out, p.segments.size());
    for (const std::vector<segmentation::segment>& per_message : p.segments) {
        put_u64_le(out, per_message.size());
        for (const segmentation::segment& seg : per_message) {
            put_segment(out, seg);
        }
    }
    return out;
}

segments_payload decode_segments(byte_view payload) {
    reader r(payload);
    segments_payload p;
    const std::size_t survivors = r.count(8);
    p.surviving.reserve(survivors);
    for (std::size_t i = 0; i < survivors; ++i) {
        p.surviving.push_back(static_cast<std::size_t>(r.u64()));
    }
    const std::size_t messages = r.count(8);
    p.segments.reserve(messages);
    for (std::size_t m = 0; m < messages; ++m) {
        const std::size_t segs = r.count(24);
        std::vector<segmentation::segment> per_message;
        per_message.reserve(segs);
        for (std::size_t s = 0; s < segs; ++s) {
            per_message.push_back(read_segment(r));
        }
        p.segments.push_back(std::move(per_message));
    }
    r.expect_end();
    if (p.segments.size() != p.surviving.size()) {
        throw parse_error(message("ckpt: segments for ", p.segments.size(),
                                  " messages but ", p.surviving.size(), " surviving indices"));
    }
    return p;
}

// ---------------------------------------------------------------------------
// unique
// ---------------------------------------------------------------------------

std::uint64_t unique_bytes(const dissim::unique_segments& unique) {
    std::uint64_t bytes = 1 + 8 + 8;
    for (const byte_vector& v : unique.values) {
        bytes += 8 + v.size();
    }
    if (unique.occurrences_elided) {
        bytes += 4 * unique.multiplicities.size();
    } else {
        for (const std::vector<segmentation::segment>& occs : unique.occurrences) {
            bytes += 8 + 24 * occs.size();
        }
    }
    return bytes;
}

byte_vector encode_unique(const dissim::unique_segments& unique) {
    byte_vector out;
    out.reserve(static_cast<std::size_t>(unique_bytes(unique)));
    // Leading form byte (v2): 0 = full occurrence lists, 1 = the weighted
    // (memory-degraded) form carrying only per-value multiplicities. The
    // degraded form must round-trip as degraded — resuming it as "full with
    // empty occurrences" would silently break every position consumer.
    put_u8(out, unique.occurrences_elided ? 1 : 0);
    put_u64_le(out, unique.values.size());
    for (const byte_vector& v : unique.values) {
        put_u64_le(out, v.size());
        put_bytes(out, v);
    }
    if (unique.occurrences_elided) {
        for (const std::uint32_t m : unique.multiplicities) {
            put_u32_le(out, m);
        }
    } else {
        for (const std::vector<segmentation::segment>& occs : unique.occurrences) {
            put_u64_le(out, occs.size());
            for (const segmentation::segment& seg : occs) {
                put_segment(out, seg);
            }
        }
    }
    put_u64_le(out, unique.short_segments);
    return out;
}

dissim::unique_segments decode_unique(byte_view payload) {
    reader r(payload);
    dissim::unique_segments unique;
    const std::uint8_t form = r.u8();
    if (form > 1) {
        throw parse_error(message("ckpt: unknown unique-segment form ", form));
    }
    unique.occurrences_elided = form == 1;
    const std::size_t n = r.count(8);
    unique.values.reserve(n);
    std::uint64_t value_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = r.count(1);
        const byte_view bytes = r.bytes(len);
        unique.values.emplace_back(bytes.begin(), bytes.end());
        value_bytes += len;
    }
    std::uint64_t occ_bytes = 0;
    if (unique.occurrences_elided) {
        unique.multiplicities.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t m = r.u32();
            if (m == 0) {
                throw parse_error("ckpt: unique value with zero multiplicity");
            }
            unique.multiplicities.push_back(m);
        }
        occ_bytes = static_cast<std::uint64_t>(n) * sizeof(std::uint32_t);
    } else {
        unique.occurrences.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t occs = r.count(24);
            if (occs == 0) {
                throw parse_error("ckpt: unique value without occurrences");
            }
            std::vector<segmentation::segment> per_value;
            per_value.reserve(occs);
            for (std::size_t s = 0; s < occs; ++s) {
                per_value.push_back(read_segment(r));
                occ_bytes += sizeof(segmentation::segment);
            }
            unique.occurrences.push_back(std::move(per_value));
        }
    }
    unique.short_segments = static_cast<std::size_t>(r.u64());
    r.expect_end();
    // A restored snapshot occupies the same storage a computed one would;
    // charge it so a resumed run's memory accounting matches a fresh run's.
    unique.footprint = mem::charge(value_bytes + occ_bytes, "ckpt.unique");
    return unique;
}

// ---------------------------------------------------------------------------
// neighbors
// ---------------------------------------------------------------------------

std::uint64_t neighbors_bytes(const dissim::capped_neighbors& neighbors) {
    std::uint64_t bytes = 8 + 4;
    for (const std::vector<dissim::neighbor>& list : neighbors.lists) {
        bytes += 8 + 8 * list.size();
    }
    return bytes;
}

byte_vector encode_neighbors(const dissim::capped_neighbors& neighbors) {
    byte_vector out;
    out.reserve(static_cast<std::size_t>(neighbors_bytes(neighbors)));
    put_u64_le(out, neighbors.lists.size());
    put_u32_le(out, neighbors.cap);
    for (const std::vector<dissim::neighbor>& list : neighbors.lists) {
        put_u64_le(out, list.size());
        for (const dissim::neighbor& nb : list) {
            put_u32_le(out, nb.id);
            put_f32(out, nb.d);
        }
    }
    return out;
}

dissim::capped_neighbors decode_neighbors(byte_view payload) {
    reader r(payload);
    const std::size_t n = r.count(12);  // each point carries >= a u64 + u32
    dissim::capped_neighbors out;
    out.cap = r.u32();
    if (n >= 2 && out.cap < 1) {
        throw parse_error("ckpt: neighbor cap must be at least 1");
    }
    const std::size_t want = std::min<std::size_t>(out.cap, n >= 1 ? n - 1 : 0);
    out.lists.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = r.count(8);
        if (len != want) {
            throw parse_error("ckpt: neighbor list length does not match the cap");
        }
        std::vector<dissim::neighbor> list;
        list.reserve(len);
        for (std::size_t k = 0; k < len; ++k) {
            dissim::neighbor nb;
            nb.id = r.u32();
            nb.d = r.f32();
            if (nb.id >= n || nb.id == i) {
                throw parse_error("ckpt: neighbor id out of range");
            }
            if (!(nb.d >= 0.0f && nb.d <= 1.0f)) {
                throw parse_error("ckpt: neighbor distance outside [0, 1]");
            }
            if (k > 0 && (nb.d < list.back().d ||
                          (nb.d == list.back().d && nb.id <= list.back().id))) {
                throw parse_error("ckpt: neighbor list not ascending by (d, id)");
            }
            list.push_back(nb);
        }
        out.lists.push_back(std::move(list));
    }
    r.expect_end();
    return out;
}

// ---------------------------------------------------------------------------
// clustering
// ---------------------------------------------------------------------------

std::uint64_t clustering_bytes(const cluster::auto_cluster_result& clustering) {
    return 8 + 4 * clustering.labels.labels.size() + 8 + 8 + 8 + 8 + 1 + 8 +
           8 * clustering.config.knees.size() + 8 + 1;
}

byte_vector encode_clustering(const cluster::auto_cluster_result& clustering) {
    byte_vector out;
    out.reserve(static_cast<std::size_t>(clustering_bytes(clustering)));
    put_u64_le(out, clustering.labels.labels.size());
    for (int label : clustering.labels.labels) {
        put_u32_le(out, static_cast<std::uint32_t>(label));
    }
    put_u64_le(out, clustering.labels.cluster_count);
    put_f64(out, clustering.config.epsilon);
    put_u64_le(out, clustering.config.min_samples);
    put_u64_le(out, clustering.config.selected_k);
    put_u8(out, clustering.config.knee_found ? 1 : 0);
    put_u64_le(out, clustering.config.knees.size());
    for (double knee : clustering.config.knees) {
        put_f64(out, knee);
    }
    put_u64_le(out, clustering.reconfigurations);
    put_u8(out, clustering.reclustered ? 1 : 0);
    return out;
}

cluster::auto_cluster_result decode_clustering(byte_view payload) {
    reader r(payload);
    cluster::auto_cluster_result out;
    const std::size_t n = r.count(4);
    out.labels.labels.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.labels.labels.push_back(static_cast<int>(r.u32()));
    }
    out.labels.cluster_count = static_cast<std::size_t>(r.u64());
    if (out.labels.cluster_count > n) {
        throw parse_error("ckpt: cluster count exceeds label count");
    }
    // Labels index per-cluster arrays downstream (members(), refinement);
    // a label outside [0, cluster_count) or != kNoise would be an
    // out-of-bounds write waiting to happen.
    for (int label : out.labels.labels) {
        if (label != cluster::kNoise &&
            (label < 0 || static_cast<std::size_t>(label) >= out.labels.cluster_count)) {
            throw parse_error(message("ckpt: label ", label, " outside [0, ",
                                      out.labels.cluster_count, ")"));
        }
    }
    out.config.epsilon = r.f64();
    if (!(out.config.epsilon >= 0.0 && out.config.epsilon <= 1.0)) {
        throw parse_error("ckpt: epsilon outside [0, 1]");
    }
    out.config.min_samples = static_cast<std::size_t>(r.u64());
    out.config.selected_k = static_cast<std::size_t>(r.u64());
    out.config.knee_found = r.u8() != 0;
    const std::size_t knees = r.count(8);
    out.config.knees.reserve(knees);
    for (std::size_t i = 0; i < knees; ++i) {
        const double knee = r.f64();
        if (std::isnan(knee)) {
            throw parse_error("ckpt: NaN knee");
        }
        out.config.knees.push_back(knee);
    }
    out.reconfigurations = static_cast<std::size_t>(r.u64());
    out.reclustered = r.u8() != 0;
    r.expect_end();
    return out;
}

}  // namespace ftc::ckpt
