// Structural integration sweep: the full pipeline must hold its invariants
// for EVERY (protocol x segmenter) combination — small traces, no quality
// floors, pure well-formedness. Complements the quality assertions in
// test_core_pipeline.cpp / test_integration_end2end.cpp.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/semantics.hpp"
#include "core/valuegen.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"

namespace ftc {
namespace {

using Param = std::tuple<const char*, const char*>;

class PipelineMatrix : public ::testing::TestWithParam<Param> {
protected:
    std::string protocol() const { return std::get<0>(GetParam()); }
    std::string segmenter() const { return std::get<1>(GetParam()); }
};

TEST_P(PipelineMatrix, InvariantsHoldEndToEnd) {
    const std::size_t count = 40;
    const protocols::trace truth = protocols::generate_trace(protocol(), count, 77);
    const auto messages = segmentation::message_bytes(truth);

    core::pipeline_options opt;
    opt.budget_seconds = 120;
    core::pipeline_result result = [&] {
        if (segmenter() == "true") {
            return core::analyze_segments(
                messages, segmentation::segments_from_annotations(truth), opt);
        }
        const auto seg = segmentation::make_segmenter(segmenter());
        return core::analyze(messages, *seg, opt);
    }();

    // Labels form a partition of the unique segments.
    ASSERT_EQ(result.final_labels.labels.size(), result.unique.size());
    for (const int label : result.final_labels.labels) {
        EXPECT_TRUE(label == cluster::kNoise ||
                    (label >= 0 &&
                     label < static_cast<int>(result.final_labels.cluster_count)));
    }
    std::size_t membership = 0;
    for (const auto& members : result.final_labels.members()) {
        membership += members.size();
    }
    EXPECT_EQ(membership + result.final_labels.noise_count(), result.unique.size());

    // Unique values really are unique, >=2 bytes, and their occurrences
    // point at matching bytes.
    std::set<byte_vector, byte_less> seen;
    for (std::size_t i = 0; i < result.unique.size(); ++i) {
        const byte_vector& value = result.unique.values[i];
        EXPECT_GE(value.size(), 2u);
        EXPECT_TRUE(seen.insert(value).second);
        for (const segmentation::segment& occ : result.unique.occurrences[i]) {
            const byte_view bytes = segmentation::segment_bytes(messages, occ);
            EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), value.begin(), value.end()));
        }
    }

    // Metrics well-formed against ground truth.
    const core::typed_segments typed = core::assign_types(truth, result.unique);
    const core::clustering_quality q =
        core::evaluate_clustering(result.final_labels, typed, truth.total_bytes());
    EXPECT_GE(q.precision, 0.0);
    EXPECT_LE(q.precision, 1.0);
    EXPECT_GE(q.recall, 0.0);
    EXPECT_LE(q.recall, 1.0);
    EXPECT_GE(q.coverage, 0.0);
    EXPECT_LE(q.coverage, 1.0);
    EXPECT_LE(q.f_score, 1.0);

    // Reports, semantics and value models never crash on any combination.
    const auto summaries = core::summarize_clusters(result);
    EXPECT_EQ(summaries.size(), [&] {
        std::size_t non_empty = 0;
        for (const auto& members : result.final_labels.members()) {
            non_empty += members.empty() ? 0 : 1;
        }
        return non_empty;
    }());
    (void)core::render_report(summaries);
    (void)core::deduce_semantics(messages, result);
    const core::cluster_value_models models = core::learn_value_models(result);
    EXPECT_EQ(models.models.size(), summaries.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PipelineMatrix,
    ::testing::Combine(::testing::Values("NTP", "DNS", "NBNS", "DHCP", "SMB", "AWDL", "AU"),
                       ::testing::Values("true", "NEMESYS", "CSP", "Netzob")),
    [](const ::testing::TestParamInfo<Param>& info) {
        return std::string(std::get<0>(info.param)) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace ftc
