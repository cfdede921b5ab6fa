// End-to-end integration: generator -> pcap file on disk -> extraction ->
// dissection -> clustering pipeline -> metrics, plus failure injection.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "fieldhunter/fieldhunter.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/temp_path.hpp"
#include "util/check.hpp"

namespace ftc {
namespace {

class EndToEnd : public ::testing::TestWithParam<const char*> {};

TEST_P(EndToEnd, FullLoopThroughPcapFile) {
    const std::string proto = GetParam();
    const std::size_t n = proto == "AU" ? 123 : 120;
    const protocols::trace original = protocols::generate_trace(proto, n, 2026);

    // Write the capture to a real file and read it back.
    const auto path = testing::temp_path("ftclust_e2e_" + proto + ".pcap");
    pcap::write_file(path, protocols::trace_to_capture(original));
    const pcap::capture loaded = pcap::read_file(path);
    std::filesystem::remove(path);

    // Rebuild ground truth from wire bytes alone.
    const protocols::trace rebuilt =
        protocols::trace_from_payloads(proto, protocols::capture_payloads(loaded));
    ASSERT_EQ(rebuilt.messages.size(), original.messages.size());

    // Cluster on ground-truth segmentation and demand the paper's shape:
    // high precision for every protocol.
    const auto messages = segmentation::message_bytes(rebuilt);
    const core::pipeline_result result = core::analyze_segments(
        messages, segmentation::segments_from_annotations(rebuilt), {});
    // Flow/type context lives in the original trace (extraction does not
    // recover request/response direction for annotations).
    const core::typed_segments typed = core::assign_types(rebuilt, result.unique);
    const core::clustering_quality q =
        core::evaluate_clustering(result.final_labels, typed, rebuilt.total_bytes());
    // SMB suffers the paper's timestamp/signature confusion; DHCP@120 mixes
    // its 4-byte addresses and numbers at this small trace size.
    const double floor = (proto == "SMB" || proto == "DHCP") ? 0.25 : 0.6;
    EXPECT_GE(q.precision, floor) << proto;
    // DHCP messages are mostly zero padding (sname/file areas), which the
    // pipeline rightly leaves unclustered; its byte coverage is low.
    const double coverage_floor = proto == "DHCP" ? 0.04 : 0.1;
    EXPECT_GT(q.coverage, coverage_floor) << proto;
    EXPECT_GE(result.final_labels.cluster_count, 2u) << proto;
}

INSTANTIATE_TEST_SUITE_P(Protocols, EndToEnd,
                         ::testing::Values("NTP", "DNS", "NBNS", "DHCP", "SMB", "AWDL", "AU"));

TEST(Integration, HeuristicSegmentersKeepPrecisionOnDns) {
    const protocols::trace t = protocols::generate_trace("DNS", 100, 99);
    const auto messages = segmentation::message_bytes(t);
    for (const char* seg_name : {"NEMESYS", "CSP"}) {
        const auto segmenter = segmentation::make_segmenter(seg_name);
        core::pipeline_options opt;
        opt.budget_seconds = 60;
        const core::pipeline_result r = core::analyze(messages, *segmenter, opt);
        const core::typed_segments typed = core::assign_types(t, r.unique);
        const core::clustering_quality q =
            core::evaluate_clustering(r.final_labels, typed, t.total_bytes());
        EXPECT_GE(q.precision, 0.4) << seg_name;
    }
}

TEST(Integration, ClusteringCoverageBeatsFieldHunter) {
    // The headline comparison (paper Sec. IV-D): clustering covers far more
    // message bytes than FieldHunter's rule-based typing.
    const protocols::trace t = protocols::generate_trace("NTP", 300, 7);
    const auto messages = segmentation::message_bytes(t);
    const core::pipeline_result r = core::analyze_segments(
        messages, segmentation::segments_from_annotations(t), {});
    const core::typed_segments typed = core::assign_types(t, r.unique);
    const core::clustering_quality q =
        core::evaluate_clustering(r.final_labels, typed, t.total_bytes());
    const fieldhunter::fh_result fh = fieldhunter::infer(fieldhunter::from_trace(t));
    EXPECT_GT(q.coverage, 2.0 * fh.coverage());
}

TEST(Integration, CorruptPcapFileRejected) {
    const auto path = testing::temp_path("ftclust_corrupt.pcap");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a pcap file at all";
    }
    EXPECT_THROW(pcap::read_file(path), parse_error);
    std::filesystem::remove(path);
}

TEST(Integration, TruncatedPcapFileRejected) {
    const protocols::trace t = protocols::generate_trace("NTP", 5, 1);
    byte_vector bytes = pcap::to_pcap_bytes(protocols::trace_to_capture(t));
    bytes.resize(bytes.size() - 7);
    EXPECT_THROW(pcap::from_pcap_bytes(bytes), parse_error);
}

TEST(Integration, TinyTraceStillConfigures) {
    // n < e^2 means round(ln n) < 2: the k range degenerates to {2} and the
    // pipeline must still produce a configuration.
    const protocols::trace t = protocols::generate_trace("NTP", 6, 3);
    const auto messages = segmentation::message_bytes(t);
    const core::pipeline_result r = core::analyze_segments(
        messages, segmentation::segments_from_annotations(t), {});
    EXPECT_GE(r.clustering.config.min_samples, 2u);
    EXPECT_GT(r.clustering.config.epsilon, 0.0);
}

TEST(Integration, ZeroLengthMessagesHandled) {
    // Degenerate message list with an empty message: segmenters must not
    // crash; the empty message simply contributes no segments.
    std::vector<byte_vector> messages{{}, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 9, 1, 2, 3, 4, 5, 6}};
    const auto seg = segmentation::make_segmenter("NEMESYS");
    const segmentation::message_segments out = seg->run(messages, {});
    EXPECT_TRUE(out[0].empty());
    EXPECT_FALSE(out[1].empty());
}

TEST(Integration, ReportRendersForEveryProtocol) {
    for (const char* proto : {"NTP", "DNS", "AWDL"}) {
        const protocols::trace t = protocols::generate_trace(proto, 60, 5);
        const auto messages = segmentation::message_bytes(t);
        const core::pipeline_result r = core::analyze_segments(
            messages, segmentation::segments_from_annotations(t), {});
        const std::string report = core::render_report(core::summarize_clusters(r));
        EXPECT_GT(report.size(), 50u) << proto;
    }
}

TEST(Integration, DeduplicationMatchesPaperPreprocessing) {
    // Duplicate messages in a capture are dropped in preprocessing; the
    // pipeline input after dedup has only distinct payloads.
    protocols::trace t = protocols::generate_trace("NTP", 30, 8);
    protocols::trace doubled = t;
    for (const auto& m : t.messages) {
        doubled.messages.push_back(m);
    }
    const protocols::trace deduped = protocols::deduplicate(doubled);
    EXPECT_EQ(deduped.messages.size(), t.messages.size());
}

}  // namespace
}  // namespace ftc
