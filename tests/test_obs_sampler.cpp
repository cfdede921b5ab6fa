// The background telemetry sampler: determinism (clustering is bitwise
// identical with the sampler on or off), the NDJSON schema of every emitted
// line, the final-sample guarantee on abnormal exit paths (budget trip,
// interrupt), and progress monotonicity across the series.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/progress.hpp"
#include "obs/sampler.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "testing/temp_path.hpp"
#include "util/error.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"

namespace ftc {
namespace {

core::pipeline_result run_pipeline(std::size_t threads, double budget = 120) {
    const protocols::trace truth = protocols::generate_trace("DNS", 120, 7);
    core::pipeline_options opt;
    opt.budget_seconds = budget;
    opt.threads = threads;
    return core::analyze_segments(segmentation::message_bytes(truth),
                                  segmentation::segments_from_annotations(truth), opt);
}

void expect_identical(const core::pipeline_result& a, const core::pipeline_result& b) {
    EXPECT_EQ(a.final_labels.labels, b.final_labels.labels);
    EXPECT_EQ(a.final_labels.cluster_count, b.final_labels.cluster_count);
    EXPECT_EQ(a.unique.size(), b.unique.size());
    EXPECT_EQ(a.clustering.config.epsilon, b.clustering.config.epsilon);
    EXPECT_EQ(a.clustering.config.min_samples, b.clustering.config.min_samples);
}

std::string temp_path(const char* name) {
    return testing::temp_path(std::string{"ftc_sampler_"} + name + ".ndjson").string();
}

std::vector<util::json_value> read_ndjson(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::vector<util::json_value> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            lines.push_back(util::parse_json(line));
        }
    }
    return lines;
}

struct file_cleanup {
    std::string path;
    ~file_cleanup() { std::remove(path.c_str()); }
};

class SamplerDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SamplerDeterminism, SamplerDoesNotChangeClustering) {
    const std::size_t threads = GetParam();
    const core::pipeline_result baseline = run_pipeline(threads);
    const std::string path = temp_path("determinism");
    const file_cleanup cleanup{path};
    core::pipeline_result observed = [&] {
        obs::sampler_options opt;
        opt.telemetry_path = path;
        opt.interval = std::chrono::milliseconds{10};
        opt.progress = true;  // exercise the render path too
        opt.force_plain = true;
        obs::sampler sampler(nullptr, std::move(opt));
        core::pipeline_result r = run_pipeline(threads);
        sampler.set_status("ok");
        return r;
    }();
    expect_identical(baseline, observed);
    // And once more with the sampler gone.
    expect_identical(baseline, run_pipeline(threads));
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, SamplerDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{0}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return info.param == 1 ? "serial" : "hardware";
                         });

TEST(ObsSampler, NdjsonSchemaAndFinalSample) {
    const std::string path = temp_path("schema");
    const file_cleanup cleanup{path};
    {
        obs::scoped_recorder recorder;
        obs::sampler_options opt;
        opt.telemetry_path = path;
        opt.interval = std::chrono::milliseconds{10};
        obs::sampler sampler(&recorder.rec(), std::move(opt));
        run_pipeline(1);
        sampler.set_status("ok");
    }
    const std::vector<util::json_value> lines = read_ndjson(path);
    ASSERT_FALSE(lines.empty());
    std::uint64_t expected_seq = 0;
    double last_t = -1.0;
    std::size_t finals = 0;
    for (const util::json_value& line : lines) {
        EXPECT_EQ(line.at("schema").as_string(), "ftc.telemetry.v1");
        EXPECT_DOUBLE_EQ(line.at("seq").as_number(),
                         static_cast<double>(expected_seq++));
        const double t = line.at("t_seconds").as_number();
        EXPECT_GE(t, last_t);
        last_t = t;
        EXPECT_TRUE(line.at("final").is_bool());
        EXPECT_TRUE(line.at("status").is_string());
        const util::json_value& mem = line.at("mem");
        EXPECT_TRUE(mem.at("tracked_bytes").is_number());
        EXPECT_TRUE(mem.at("tracked_peak_bytes").is_number());
        EXPECT_TRUE(mem.at("rss_peak_bytes").is_number());
        if (line.at("final").as_bool()) {
            ++finals;
        }
        if (const util::json_value* progress = line.find("progress")) {
            EXPECT_TRUE(progress->at("stage").is_string());
            EXPECT_TRUE(progress->at("done").is_number());
            EXPECT_TRUE(progress->at("total").is_number());
            EXPECT_TRUE(progress->at("stage_seq").is_number());
        }
        // Recorder attached: counters/gauges objects must be present.
        EXPECT_NE(line.find("counters"), nullptr);
        EXPECT_NE(line.find("gauges"), nullptr);
    }
    // Exactly one final sample, and it is the last line.
    EXPECT_EQ(finals, 1u);
    EXPECT_TRUE(lines.back().at("final").as_bool());
    EXPECT_EQ(lines.back().at("status").as_string(), "ok");
}

TEST(ObsSampler, ProgressMonotonicPerStage) {
    const std::string path = temp_path("monotonic");
    const file_cleanup cleanup{path};
    {
        obs::sampler_options opt;
        opt.telemetry_path = path;
        opt.interval = std::chrono::milliseconds{5};
        obs::sampler sampler(nullptr, std::move(opt));
        run_pipeline(1);
        sampler.set_status("ok");
    }
    double last_stage_seq = -1.0;
    double last_done = 0.0;
    for (const util::json_value& line : read_ndjson(path)) {
        const util::json_value* progress = line.find("progress");
        if (progress == nullptr) {
            continue;
        }
        const double stage_seq = progress->at("stage_seq").as_number();
        const double done = progress->at("done").as_number();
        EXPECT_GE(stage_seq, last_stage_seq);
        if (stage_seq == last_stage_seq) {
            // Within one stage the done counter never goes backwards.
            EXPECT_GE(done, last_done);
        }
        last_stage_seq = stage_seq;
        last_done = done;
        const double total = progress->at("total").as_number();
        if (total > 0) {
            EXPECT_LE(done, total);
        }
    }
}

TEST(ObsSampler, BudgetTripStillEmitsFinalStatusSample) {
    const std::string path = temp_path("budget");
    const file_cleanup cleanup{path};
    bool tripped = false;
    try {
        obs::sampler_options opt;
        opt.telemetry_path = path;
        opt.interval = std::chrono::milliseconds{5};
        obs::sampler sampler(nullptr, std::move(opt));
        sampler.set_status("error");
        try {
            run_pipeline(1, 1e-9);  // guaranteed to trip immediately
        } catch (const budget_exceeded_error&) {
            tripped = true;
            sampler.set_status("budget-exceeded");
            throw;  // the unwind through ~sampler emits the final sample
        }
    } catch (const budget_exceeded_error&) {
    }
    ASSERT_TRUE(tripped);
    const std::vector<util::json_value> lines = read_ndjson(path);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(lines.back().at("final").as_bool());
    EXPECT_EQ(lines.back().at("status").as_string(), "budget-exceeded");
}

TEST(ObsSampler, InterruptStillEmitsFinalStatusSample) {
    const std::string path = temp_path("interrupt");
    const file_cleanup cleanup{path};
    const scoped_interrupt_clear guard;
    bool interrupted = false;
    try {
        obs::sampler_options opt;
        opt.telemetry_path = path;
        opt.interval = std::chrono::milliseconds{5};
        obs::sampler sampler(nullptr, std::move(opt));
        request_interrupt(SIGINT);
        try {
            run_pipeline(1);  // first cancellation point raises
        } catch (const interrupted_error&) {
            interrupted = true;
            sampler.set_status("interrupted");
            throw;
        }
    } catch (const interrupted_error&) {
    }
    ASSERT_TRUE(interrupted);
    const std::vector<util::json_value> lines = read_ndjson(path);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(lines.back().at("final").as_bool());
    EXPECT_EQ(lines.back().at("status").as_string(), "interrupted");
}

TEST(ObsSampler, UnwritablePathThrows) {
    obs::sampler_options opt;
    opt.telemetry_path = "/nonexistent-dir-xyz/telemetry.ndjson";
    EXPECT_THROW(obs::sampler(nullptr, std::move(opt)), ftc::error);
}

TEST(ObsSampler, FullDiskCountsWriteErrorsInsteadOfDroppingSilently) {
#if defined(__linux__)
    // /dev/full opens fine and fails every write with ENOSPC — the exact
    // shape of a telemetry disk filling up mid-run. The sampler must keep
    // running and count every dropped line, in its own accessor and in the
    // telemetry.write_errors obs counter.
    obs::scoped_recorder recorder;
    obs::sampler_options opt;
    opt.telemetry_path = "/dev/full";
    opt.interval = std::chrono::milliseconds(10);
    obs::sampler sampler(&recorder.rec(), std::move(opt));
    sampler.set_status("ok");
    sampler.stop();  // at minimum the final sample was written (and failed)
    EXPECT_GE(sampler.write_errors(), 1u);
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    EXPECT_GE(m.counters.at("telemetry.write_errors"),
              static_cast<double>(sampler.write_errors()));
#else
    GTEST_SKIP() << "/dev/full is linux-only";
#endif
}

TEST(ObsSampler, StopIsIdempotent) {
    const std::string path = temp_path("idempotent");
    const file_cleanup cleanup{path};
    obs::sampler_options opt;
    opt.telemetry_path = path;
    obs::sampler sampler(nullptr, std::move(opt));
    sampler.set_status("ok");
    sampler.stop();
    sampler.stop();  // second stop (and the destructor) must be no-ops
    const std::vector<util::json_value> lines = read_ndjson(path);
    std::size_t finals = 0;
    for (const util::json_value& line : lines) {
        finals += line.at("final").as_bool() ? 1 : 0;
    }
    EXPECT_EQ(finals, 1u);
}

TEST(ObsSampler, RenderProgressLineFormats) {
    obs::progress_snapshot p;
    p.stage = "dissim.matrix";
    p.done = 50;
    p.total = 200;
    obs::progress_estimate est;
    est.rate_per_second = 1234.0;
    est.eta_seconds = 90.0;
    const std::string plain = obs::render_progress_line(p, est, false);
    EXPECT_NE(plain.find("[dissim.matrix]"), std::string::npos);
    EXPECT_NE(plain.find("50/200"), std::string::npos);
    EXPECT_NE(plain.find("25%"), std::string::npos);
    EXPECT_NE(plain.find("1.2k/s"), std::string::npos);
    EXPECT_NE(plain.find("eta 1.5m"), std::string::npos);
    EXPECT_EQ(plain.back(), '\n');
    const std::string tty = obs::render_progress_line(p, est, true);
    EXPECT_EQ(tty.rfind("\r\x1b[K", 0), 0u);  // starts with the overwrite
    EXPECT_EQ(tty.find('\n'), std::string::npos);
    // Unknown stage / unknown rate renders without the optional parts.
    const std::string idle = obs::render_progress_line({}, {}, false);
    EXPECT_NE(idle.find("[idle]"), std::string::npos);
    EXPECT_EQ(idle.find("eta"), std::string::npos);
}

}  // namespace
}  // namespace ftc
