// Integration-level tests of the full analysis pipeline (core/pipeline.hpp).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/metrics.hpp"
#include "core/report.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/nemesys.hpp"
#include "testing/corrupter.hpp"
#include "util/check.hpp"

namespace ftc::core {
namespace {

TEST(Pipeline, GroundTruthNtpClustersWithHighPrecision) {
    const protocols::trace t = protocols::generate_trace("NTP", 150, 42);
    const auto messages = segmentation::message_bytes(t);
    const pipeline_result r =
        analyze_segments(messages, segmentation::segments_from_annotations(t), {});
    const typed_segments typed = assign_types(t, r.unique);
    const clustering_quality q = evaluate_clustering(r.final_labels, typed, t.total_bytes());
    EXPECT_GE(q.precision, 0.9);
    EXPECT_GE(q.f_score, 0.85);
    EXPECT_GE(r.final_labels.cluster_count, 2u);
}

TEST(Pipeline, GroundTruthDnsClustersWithHighPrecision) {
    const protocols::trace t = protocols::generate_trace("DNS", 150, 42);
    const auto messages = segmentation::message_bytes(t);
    const pipeline_result r =
        analyze_segments(messages, segmentation::segments_from_annotations(t), {});
    const typed_segments typed = assign_types(t, r.unique);
    const clustering_quality q = evaluate_clustering(r.final_labels, typed, t.total_bytes());
    EXPECT_GE(q.precision, 0.9);
    EXPECT_GE(q.f_score, 0.85);
}

TEST(Pipeline, StageOutputsAreConsistent) {
    const protocols::trace t = protocols::generate_trace("DNS", 60, 7);
    const auto messages = segmentation::message_bytes(t);
    const pipeline_result r =
        analyze_segments(messages, segmentation::segments_from_annotations(t), {});
    // Labels cover exactly the unique segments.
    EXPECT_EQ(r.final_labels.labels.size(), r.unique.size());
    EXPECT_EQ(r.clustering.labels.labels.size(), r.unique.size());
    // Every occurrence references a valid message/offset.
    for (const auto& occs : r.unique.occurrences) {
        EXPECT_FALSE(occs.empty());
        for (const auto& seg : occs) {
            ASSERT_LT(seg.message_index, messages.size());
            EXPECT_LE(seg.offset + seg.length, messages[seg.message_index].size());
            EXPECT_GE(seg.length, 2u);
        }
    }
    // Unique values are in fact distinct.
    for (std::size_t i = 0; i < r.unique.size(); ++i) {
        for (std::size_t j = i + 1; j < r.unique.size(); ++j) {
            EXPECT_NE(r.unique.values[i], r.unique.values[j]);
        }
    }
    EXPECT_GT(r.elapsed_seconds, 0.0);
}

TEST(Pipeline, RefinementToggle) {
    const protocols::trace t = protocols::generate_trace("NTP", 80, 11);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options with;
    with.apply_refinement = true;
    pipeline_options without;
    without.apply_refinement = false;
    const pipeline_result a =
        analyze_segments(messages, segmentation::segments_from_annotations(t), with);
    const pipeline_result b =
        analyze_segments(messages, segmentation::segments_from_annotations(t), without);
    // Without refinement the final labels are the raw DBSCAN labels.
    EXPECT_EQ(b.final_labels.labels, b.clustering.labels.labels);
    EXPECT_TRUE(b.refinement.merges.empty());
    EXPECT_TRUE(b.refinement.splits.empty());
    // With refinement, the audit trail matches the label change.
    if (a.refinement.merges.empty() && a.refinement.splits.empty()) {
        EXPECT_EQ(a.final_labels.labels, a.clustering.labels.labels);
    }
}

TEST(Pipeline, MinSegmentLengthExcludesShortSegments) {
    const protocols::trace t = protocols::generate_trace("NTP", 60, 13);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.min_segment_length = 2;
    const pipeline_result r =
        analyze_segments(messages, segmentation::segments_from_annotations(t), opt);
    // NTP has four 1-byte fields per message: they must all be excluded.
    EXPECT_GT(r.unique.short_segments, 0u);
    for (const byte_vector& v : r.unique.values) {
        EXPECT_GE(v.size(), 2u);
    }
}

TEST(Pipeline, RunsWithHeuristicSegmenter) {
    const protocols::trace t = protocols::generate_trace("DNS", 60, 5);
    const auto messages = segmentation::message_bytes(t);
    const segmentation::nemesys_segmenter seg;
    const pipeline_result r = analyze(messages, seg, {});
    EXPECT_GT(r.unique.size(), 0u);
    EXPECT_EQ(r.final_labels.labels.size(), r.unique.size());
}

TEST(Pipeline, EmptyTraceRejected) {
    EXPECT_THROW(analyze_segments({}, {}, {}), precondition_error);
}

TEST(Pipeline, TooUniformTraceRejected) {
    // All messages identical -> one unique segment -> cannot cluster.
    const std::vector<byte_vector> messages(5, byte_vector{1, 2, 3, 4});
    segmentation::message_segments segs;
    for (std::size_t m = 0; m < messages.size(); ++m) {
        segs.push_back({segmentation::segment{m, 0, 4}});
    }
    EXPECT_THROW(analyze_segments(messages, segs, {}), precondition_error);
}

TEST(Pipeline, BudgetExceededPropagates) {
    const protocols::trace t = protocols::generate_trace("SMB", 200, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.budget_seconds = 1e-9;
    EXPECT_THROW(
        analyze_segments(messages, segmentation::segments_from_annotations(t), opt),
        budget_exceeded_error);
}

TEST(Pipeline, BudgetExceededCarriesPartialProgress) {
    const protocols::trace t = protocols::generate_trace("SMB", 200, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.budget_seconds = 1e-9;
    try {
        analyze_segments(messages, segmentation::segments_from_annotations(t), opt);
        FAIL() << "expected budget_exceeded_error";
    } catch (const budget_exceeded_error& e) {
        EXPECT_NE(e.partial_report().find("reached stage"), std::string::npos)
            << e.partial_report();
        EXPECT_NE(e.partial_report().find("segments "), std::string::npos);
    }
}

/// Sleeps past the job's budget without polling its deadline, then
/// segments like NEMESYS: only the pipeline's own checks can stop the run.
class sleeping_segmenter final : public segmentation::segmenter {
public:
    std::string_view name() const override { return "sleeping"; }
    segmentation::message_segments run(const std::vector<byte_vector>& messages,
                                       const deadline& /*dl*/) const override {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        return segmentation::nemesys_segmenter{}.run(messages, deadline());
    }
};

TEST(Pipeline, OneBudgetCoversSegmentationAndTheStagesAfterIt) {
    const protocols::trace t = protocols::generate_trace("NTP", 60, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.budget_seconds = 0.2;
    const sleeping_segmenter segmenter;
    diag::error_sink sink(diag::policy::lenient);
    try {
        (void)analyze_seeded(messages, &segmenter, {}, opt, sink);
        FAIL() << "expected budget_exceeded_error";
    } catch (const budget_exceeded_error& e) {
        // Segmentation spent the budget, so a later stage trips it.
        const std::string& partial = e.partial_report();
        EXPECT_NE(partial.find("reached stage"), std::string::npos) << partial;
        EXPECT_EQ(partial.find("reached stage segmentation"), std::string::npos) << partial;
    }
}

/// The job sequence `ftclust run` and every serve session ran before the
/// pipeline took the run's sink: segment_lenient on a deadline of its own,
/// then a seeded run over the survivors. Kept as the oracle of the one path.
pipeline_result segment_then_analyze(const std::vector<byte_vector>& messages,
                                     const segmentation::segmenter& segmenter,
                                     const pipeline_options& opt, diag::error_sink& sink) {
    segmentation::lenient_segmentation segmented = segmentation::segment_lenient(
        segmenter, messages, deadline(opt.budget_seconds), sink);
    pipeline_seed seed;
    seed.segments = std::move(segmented.segments);
    pipeline_result r = analyze_seeded(segmented.messages, nullptr, std::move(seed), opt);
    r.surviving = std::move(segmented.surviving);
    return r;
}

/// What one job left behind: the error it threw or its results, and every
/// diagnostic in its sink.
struct job_outcome {
    std::string error;
    std::vector<std::size_t> surviving;
    std::vector<int> labels;
    std::string report;
    std::vector<std::string> diagnostics;

    bool operator==(const job_outcome&) const = default;
};

/// Run \p job with a fresh \p mode sink that starts from the decode
/// diagnostics in \p decoded.
template <typename Job>
job_outcome outcome_of(const diag::error_sink& decoded, diag::policy mode, Job job) {
    diag::error_sink sink(mode);
    sink.merge(decoded);
    job_outcome out;
    try {
        const pipeline_result r = job(sink);
        out.surviving = r.surviving;
        out.labels = r.final_labels.labels;
        out.report = render_report(summarize_clusters(r));
    } catch (const ftc::error& e) {
        out.error = e.what();
    }
    for (const diag::diagnostic& d : sink.diagnostics()) {
        out.diagnostics.push_back(message(diag::category_name(d.cat), '/',
                                          diag::severity_name(d.sev), " #", d.record_index,
                                          " @", d.byte_offset, ": ", d.detail));
    }
    return out;
}

TEST(Pipeline, OnePathMatchesSegmentLenientThenSeededRun) {
    for (const auto& [protocol, segmenter_name] :
         {std::pair{"DNS", "NEMESYS"}, std::pair{"NTP", "Netzob"}}) {
        const byte_vector clean = pcap::to_pcap_bytes(
            protocols::trace_to_capture(protocols::generate_trace(protocol, 60, 5)));
        testing::corruption_options damage;
        damage.seed = 5;
        const byte_vector damaged = testing::corrupt_pcap_bytes(clean, damage);
        for (const bool with_empty : {false, true}) {
            for (const byte_vector* capture : {&clean, &damaged}) {
                diag::error_sink decoded(diag::policy::lenient);
                std::vector<byte_vector> messages = protocols::capture_payloads(
                    pcap::from_pcap_bytes(*capture, decoded), decoded);
                if (with_empty) {
                    // Lenient segmentation quarantines an empty payload.
                    messages.insert(messages.begin() + 3, byte_vector{});
                }
                for (const diag::policy mode : {diag::policy::strict, diag::policy::lenient}) {
                    for (const std::size_t threads : {1u, 2u}) {
                        SCOPED_TRACE(message(protocol, capture == &clean ? " clean" : " damaged",
                                             with_empty ? " +empty" : "",
                                             mode == diag::policy::lenient ? " lenient"
                                                                           : " strict",
                                             " threads ", threads));
                        const auto segmenter =
                            segmentation::make_segmenter(segmenter_name, threads);
                        pipeline_options opt;
                        opt.budget_seconds = 120;
                        opt.threads = threads;
                        const job_outcome one = outcome_of(decoded, mode, [&](auto& sink) {
                            return analyze_seeded(messages, segmenter.get(), {}, opt, sink);
                        });
                        const job_outcome oracle = outcome_of(decoded, mode, [&](auto& sink) {
                            return segment_then_analyze(messages, *segmenter, opt, sink);
                        });
                        EXPECT_EQ(one, oracle) << one.error << " | " << oracle.error;
                        if (mode == diag::policy::lenient) {
                            EXPECT_TRUE(one.error.empty()) << one.error;
                            EXPECT_EQ(one.surviving.size() + (with_empty ? 1 : 0),
                                      messages.size());
                        }
                    }
                }
            }
        }
    }
}

TEST(Pipeline, SegmentCapRaisesTypedError) {
    const protocols::trace t = protocols::generate_trace("DNS", 50, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.max_segments = 10;  // far below what 50 DNS messages produce
    try {
        analyze_segments(messages, segmentation::segments_from_annotations(t), opt);
        FAIL() << "expected budget_exceeded_error";
    } catch (const budget_exceeded_error& e) {
        EXPECT_NE(std::string{e.what()}.find("segment cap"), std::string::npos);
        EXPECT_FALSE(e.partial_report().empty());
    }
}

TEST(Pipeline, ByteCapRaisesTypedError) {
    const protocols::trace t = protocols::generate_trace("DNS", 50, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options opt;
    opt.max_bytes = 64;
    EXPECT_THROW(
        analyze_segments(messages, segmentation::segments_from_annotations(t), opt),
        budget_exceeded_error);
}

TEST(Pipeline, GenerousCapsDoNotChangeResults) {
    const protocols::trace t = protocols::generate_trace("DNS", 60, 3);
    const auto messages = segmentation::message_bytes(t);
    pipeline_options plain;
    pipeline_options capped;
    capped.max_segments = 1u << 20;
    capped.max_bytes = 1u << 30;
    capped.budget_seconds = 120;
    const pipeline_result a =
        analyze_segments(messages, segmentation::segments_from_annotations(t), plain);
    const pipeline_result b =
        analyze_segments(messages, segmentation::segments_from_annotations(t), capped);
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
}

TEST(Pipeline, OversizeGuardReportsReconfigurations) {
    // SMB's high-entropy content triggers the walk-down (paper Sec. III-E).
    const protocols::trace t = protocols::generate_trace("SMB", 150, 42);
    const auto messages = segmentation::message_bytes(t);
    const pipeline_result r =
        analyze_segments(messages, segmentation::segments_from_annotations(t), {});
    if (r.clustering.reclustered) {
        EXPECT_GE(r.clustering.reconfigurations, 1u);
    }
    EXPECT_GT(r.clustering.config.epsilon, 0.0);
    EXPECT_LT(r.clustering.config.epsilon, 1.0);
}

}  // namespace
}  // namespace ftc::core
