/// \file quickstart.cpp
/// The 60-second tour of ftclust: synthesize a trace of a binary protocol,
/// write/read it through a real pcap file, run the full field-type
/// clustering pipeline, and print the pseudo data type report an analyst
/// would start from.
///
/// Usage: quickstart [protocol] [messages]
///   protocol: NTP (default), DNS, NBNS, DHCP, SMB, AWDL, AU
///   messages: trace size (default 200)
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/temp_path.hpp"

int main(int argc, char** argv) {
    using namespace ftc;
    const std::string protocol = argc > 1 ? argv[1] : "NTP";
    const std::size_t count = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 200;

    try {
        // 1. Record a trace. Here we synthesize one; with real traffic you
        //    would start from a capture file directly.
        std::printf("== generating %zu unique %s messages\n", count, protocol.c_str());
        const protocols::trace trace = protocols::generate_trace(protocol, count, 1);

        // 2. Round-trip through a pcap file, exactly as an analyst would
        //    load recorded traffic.
        const auto path = testing::temp_path("ftclust_quickstart.pcap");
        pcap::write_file(path, protocols::trace_to_capture(trace));
        const pcap::capture capture = pcap::read_file(path);
        std::filesystem::remove(path);
        std::printf("== wrote and re-read %zu packets via %s\n", capture.packets.size(),
                    path.c_str());

        // 3. Extract application messages and recover ground truth from the
        //    wire bytes (stand-in for Wireshark dissectors).
        const protocols::trace truth =
            protocols::trace_from_payloads(protocol, protocols::capture_payloads(capture));

        // 4. Segment the messages. The quickstart uses perfect ground-truth
        //    segmentation; see compare_segmenters for the heuristic ones.
        const auto messages = segmentation::message_bytes(truth);
        segmentation::message_segments segments =
            segmentation::segments_from_annotations(truth);

        // 5. Cluster segments into pseudo data types: Canberra
        //    dissimilarity -> epsilon auto-configuration -> DBSCAN ->
        //    refinement. Everything is automatic; no parameters needed.
        const core::pipeline_result result =
            core::analyze_segments(messages, std::move(segments), {});
        std::printf("== clustered %zu unique segments into %zu pseudo data types "
                    "(eps %.3f, %.1fs)\n",
                    result.unique.size(), result.final_labels.cluster_count,
                    result.clustering.config.epsilon, result.elapsed_seconds);

        // 6. Print the analyst-facing report.
        std::printf("\n%s", core::render_report(core::summarize_clusters(result)).c_str());

        // 7. Because this trace has ground truth, score the clustering.
        const core::typed_segments typed = core::assign_types(truth, result.unique);
        const core::clustering_quality q =
            core::evaluate_clustering(result.final_labels, typed, truth.total_bytes());
        std::printf("\nagainst ground truth: precision %.2f, recall %.2f, F1/4 %.2f, "
                    "coverage %.0f%%\n",
                    q.precision, q.recall, q.f_score, 100 * q.coverage);
        return 0;
    } catch (const error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
