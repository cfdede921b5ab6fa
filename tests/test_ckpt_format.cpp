// Unit tests of the checkpoint wire format (ckpt/format.hpp): lossless
// round trips, digest verification, and rejection of damaged input.
#include "ckpt/format.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/check.hpp"

namespace ftc::ckpt {
namespace {

segments_payload sample_segments() {
    segments_payload p;
    p.surviving = {0, 2, 3};
    p.segments = {
        {{0, 0, 4}, {0, 4, 2}},
        {{1, 0, 3}, {1, 3, 3}},
        {{2, 0, 6}},
    };
    return p;
}

dissim::unique_segments sample_unique() {
    dissim::unique_segments u;
    u.values = {{1, 2, 3}, {4, 5}, {6, 7, 8, 9}};
    u.occurrences = {
        {{0, 0, 3}},
        {{0, 3, 2}, {1, 0, 2}},
        {{2, 0, 4}},
    };
    u.short_segments = 5;
    return u;
}

cluster::auto_cluster_result sample_clustering() {
    cluster::auto_cluster_result c;
    c.labels.labels = {0, 0, 1, cluster::kNoise, 1};
    c.labels.cluster_count = 2;
    c.config.epsilon = 0.0421875;
    c.config.min_samples = 3;
    c.config.selected_k = 4;
    c.config.knee_found = true;
    c.config.knees = {0.0421875, 0.125};
    c.reconfigurations = 1;
    c.reclustered = true;
    return c;
}

TEST(CkptFormat, SectionContainerRoundTrips) {
    std::vector<section> in;
    in.push_back({1, {1, 2, 3}});
    in.push_back({4, {}});
    in.push_back({6, {255}});
    const byte_vector file = encode_sections(in);
    const std::vector<section> out = decode_sections(file);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[0].payload, (byte_vector{1, 2, 3}));
    EXPECT_EQ(out[1].id, 4u);
    EXPECT_TRUE(out[1].payload.empty());
    EXPECT_EQ(out[2].payload, byte_vector{255});
}

TEST(CkptFormat, EveryPayloadBitFlipIsDetected) {
    // The per-section digest must catch a single flipped bit anywhere in
    // any payload byte.
    std::vector<section> in;
    in.push_back({2, {10, 20, 30, 40, 50}});
    const byte_vector file = encode_sections(in);
    const std::size_t payload_start = file.size() - 5;
    for (std::size_t byte_at = payload_start; byte_at < file.size(); ++byte_at) {
        for (int bit = 0; bit < 8; ++bit) {
            byte_vector damaged = file;
            damaged[byte_at] ^= static_cast<std::uint8_t>(1 << bit);
            EXPECT_THROW(decode_sections(damaged), parse_error)
                << "flip at byte " << byte_at << " bit " << bit;
        }
    }
}

TEST(CkptFormat, RejectsBadMagicVersionAndTruncation) {
    const byte_vector file = encode_sections({{1, {9, 9, 9}}});

    byte_vector bad_magic = file;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(decode_sections(bad_magic), parse_error);

    byte_vector bad_version = file;
    bad_version[8] = 99;
    EXPECT_THROW(decode_sections(bad_version), parse_error);

    for (std::size_t cut = 0; cut < file.size(); ++cut) {
        const byte_view truncated{file.data(), cut};
        EXPECT_THROW(decode_sections(truncated), parse_error) << "cut at " << cut;
    }

    byte_vector trailing = file;
    trailing.push_back(0);
    EXPECT_THROW(decode_sections(trailing), parse_error);
}

TEST(CkptFormat, FingerprintRoundTripsAndRejectsShortPayload) {
    const options_fingerprint fp{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    EXPECT_EQ(decode_fingerprint(encode_fingerprint(fp)), fp);
    EXPECT_THROW(decode_fingerprint(byte_view{encode_fingerprint(fp).data(), 15}),
                 parse_error);
}

TEST(CkptFormat, FingerprintIgnoresSpeedKnobsButNotResultKnobs) {
    core::pipeline_options a;
    core::pipeline_options b = a;
    b.threads = 7;
    b.budget_seconds = 1.0;
    b.max_segments = 100;
    b.max_bytes = 1000;
    // Speed/limit knobs do not change what a run computes -> same identity.
    EXPECT_EQ(fingerprint(a, "NEMESYS", 1), fingerprint(b, "NEMESYS", 1));

    core::pipeline_options c = a;
    c.min_segment_length = 3;
    EXPECT_NE(fingerprint(a, "NEMESYS", 1), fingerprint(c, "NEMESYS", 1));

    core::pipeline_options d = a;
    d.oversize_fraction = 0.5;
    EXPECT_NE(fingerprint(a, "NEMESYS", 1), fingerprint(d, "NEMESYS", 1));

    EXPECT_NE(fingerprint(a, "NEMESYS", 1), fingerprint(a, "CSP", 1));
    EXPECT_NE(fingerprint(a, "NEMESYS", 1), fingerprint(a, "NEMESYS", 2));
}

TEST(CkptFormat, SegmentsRoundTrip) {
    const segments_payload in = sample_segments();
    const segments_payload out = decode_segments(encode_segments(in));
    EXPECT_EQ(out.surviving, in.surviving);
    EXPECT_EQ(out.segments, in.segments);
}

TEST(CkptFormat, SegmentsRejectSurvivorCountMismatch) {
    segments_payload p = sample_segments();
    p.surviving.pop_back();
    EXPECT_THROW(decode_segments(encode_segments(p)), parse_error);
}

TEST(CkptFormat, UniqueRoundTrip) {
    const dissim::unique_segments in = sample_unique();
    const dissim::unique_segments out = decode_unique(encode_unique(in));
    EXPECT_EQ(out.values, in.values);
    EXPECT_EQ(out.occurrences, in.occurrences);
    EXPECT_EQ(out.short_segments, in.short_segments);
}

dissim::capped_neighbors sample_neighbors() {
    // Shape for n = 4, cap = 2: every list holds min(cap, n-1) = 2 entries,
    // ascending by (d, id), ids never the point itself.
    dissim::capped_neighbors nb;
    nb.cap = 2;
    nb.lists = {
        {{1, 0.0f}, {2, 0.125f}},
        {{0, 0.0f}, {3, 0.5f}},
        {{0, 0.125f}, {1, 0.25f}},
        {{1, 0.5f}, {2, 0.75f}},
    };
    return nb;
}

TEST(CkptFormat, NeighborsRoundTripIsBitwise) {
    const dissim::capped_neighbors in = sample_neighbors();
    const dissim::capped_neighbors out = decode_neighbors(encode_neighbors(in));
    ASSERT_EQ(out.size(), in.size());
    EXPECT_EQ(out.cap, in.cap);
    for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(out.lists[i].size(), in.lists[i].size());
        for (std::size_t k = 0; k < in.lists[i].size(); ++k) {
            EXPECT_EQ(out.lists[i][k].id, in.lists[i][k].id);
            EXPECT_EQ(out.lists[i][k].d, in.lists[i][k].d);
        }
    }
}

TEST(CkptFormat, NeighborsRejectStructuralDamage) {
    {
        // Truncated list: length no longer min(cap, n-1).
        dissim::capped_neighbors bad = sample_neighbors();
        bad.lists[1].pop_back();
        EXPECT_THROW(decode_neighbors(encode_neighbors(bad)), parse_error);
    }
    {
        // Self-referential neighbor id.
        dissim::capped_neighbors bad = sample_neighbors();
        bad.lists[2][0].id = 2;
        EXPECT_THROW(decode_neighbors(encode_neighbors(bad)), parse_error);
    }
    {
        // Out-of-range id.
        dissim::capped_neighbors bad = sample_neighbors();
        bad.lists[0][1].id = 9;
        EXPECT_THROW(decode_neighbors(encode_neighbors(bad)), parse_error);
    }
    {
        // Distance outside [0, 1].
        dissim::capped_neighbors bad = sample_neighbors();
        bad.lists[3][1].d = 1.5f;
        EXPECT_THROW(decode_neighbors(encode_neighbors(bad)), parse_error);
    }
    {
        // Descending (d, id) order.
        dissim::capped_neighbors bad = sample_neighbors();
        std::swap(bad.lists[0][0], bad.lists[0][1]);
        EXPECT_THROW(decode_neighbors(encode_neighbors(bad)), parse_error);
    }
}

TEST(CkptFormat, ClusteringRoundTrip) {
    const cluster::auto_cluster_result in = sample_clustering();
    const cluster::auto_cluster_result out = decode_clustering(encode_clustering(in));
    EXPECT_EQ(out.labels.labels, in.labels.labels);
    EXPECT_EQ(out.labels.cluster_count, in.labels.cluster_count);
    EXPECT_EQ(out.config.epsilon, in.config.epsilon);
    EXPECT_EQ(out.config.min_samples, in.config.min_samples);
    EXPECT_EQ(out.config.selected_k, in.config.selected_k);
    EXPECT_EQ(out.config.knee_found, in.config.knee_found);
    EXPECT_EQ(out.config.knees, in.config.knees);
    EXPECT_EQ(out.reconfigurations, in.reconfigurations);
    EXPECT_EQ(out.reclustered, in.reclustered);
}

TEST(CkptFormat, ClusteringRejectsOutOfRangeLabels) {
    cluster::auto_cluster_result c = sample_clustering();
    c.labels.labels[0] = 5;  // >= cluster_count
    EXPECT_THROW(decode_clustering(encode_clustering(c)), parse_error);
    c.labels.labels[0] = -2;  // not kNoise, not a cluster id
    EXPECT_THROW(decode_clustering(encode_clustering(c)), parse_error);
}

TEST(CkptFormat, RealUniqueSegmentsRoundTripLosslessly) {
    // Unique segments condensed from a real synthesized trace, not a toy:
    // the wire form must preserve every value and occurrence.
    const protocols::trace t = protocols::generate_trace("DNS", 40, 3);
    const auto messages = segmentation::message_bytes(t);
    const auto segs = segmentation::segments_from_annotations(t);
    const dissim::unique_segments unique = dissim::condense(messages, segs);

    const dissim::unique_segments unique_back = decode_unique(encode_unique(unique));
    EXPECT_EQ(unique_back.values, unique.values);
    EXPECT_EQ(unique_back.occurrences, unique.occurrences);
}

TEST(CkptFormat, ProjectedSizesEqualEncodedSizes) {
    // The checkpoint writer skips a snapshot by these projections before
    // encoding it, so each must be the exact size of what its encoder
    // produces, and file_bytes the exact size of the container around them.
    const segments_payload segs = sample_segments();
    const dissim::unique_segments unique = sample_unique();
    dissim::unique_segments weighted = sample_unique();
    weighted.occurrences_elided = true;
    weighted.occurrences.clear();
    weighted.multiplicities = {1, 2, 1};
    const dissim::capped_neighbors neighbors = sample_neighbors();
    const cluster::auto_cluster_result clustering = sample_clustering();

    EXPECT_EQ(segments_bytes(segs), encode_segments(segs).size());
    EXPECT_EQ(unique_bytes(unique), encode_unique(unique).size());
    EXPECT_EQ(unique_bytes(weighted), encode_unique(weighted).size());
    EXPECT_EQ(neighbors_bytes(neighbors), encode_neighbors(neighbors).size());
    EXPECT_EQ(clustering_bytes(clustering), encode_clustering(clustering).size());
    EXPECT_EQ(kFingerprintBytes, encode_fingerprint({1, 2}).size());

    const std::vector<section> sections = {
        {static_cast<std::uint32_t>(section_id::unique), encode_unique(unique)},
        {static_cast<std::uint32_t>(section_id::neighbors), encode_neighbors(neighbors)},
    };
    const std::vector<std::uint64_t> sizes = {unique_bytes(unique), neighbors_bytes(neighbors)};
    EXPECT_EQ(file_bytes(sizes), encode_sections(sections).size());
}

}  // namespace
}  // namespace ftc::ckpt
