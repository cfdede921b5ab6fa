// Unit tests for the ftc::obs span tracer and exporters (obs/export.hpp):
// span nesting/depth accounting, Chrome trace-event JSON well-formedness,
// Prometheus text shape and run-manifest serialization.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace ftc::obs {
namespace {

/// Minimal recursive-descent JSON syntax checker — enough to assert the
/// exporters emit structurally valid JSON without a parser dependency.
class json_checker {
public:
    explicit json_checker(std::string_view text) : text_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) {
            return false;
        }
        skip_ws();
        return pos_ == text_.size();
    }

private:
    bool value() {
        if (pos_ >= text_.size()) {
            return false;
        }
        switch (text_[pos_]) {
            case '{':
                return object();
            case '[':
                return array();
            case '"':
                return string();
            case 't':
                return literal("true");
            case 'f':
                return literal("false");
            case 'n':
                return literal("null");
            default:
                return number();
        }
    }

    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string()) {
                return false;
            }
            skip_ws();
            if (peek() != ':') {
                return false;
            }
            ++pos_;
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!value()) {
                return false;
            }
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string() {
        if (peek() != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) {
            return false;
        }
        pos_ += word.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

TEST(ObsTrace, SpansRecordNestingDepth) {
    trace_snapshot snap;
    {
        scoped_recorder scoped;
        {
            span outer("stage");
            {
                span inner("sub");
                { span innermost("subsub"); }
            }
            { span sibling("sub2"); }
        }
        snap = scoped.rec().trace();
    }
    ASSERT_EQ(snap.spans.size(), 4u);
    // Sorted by (tid, start, depth): parent first, then children in order.
    EXPECT_EQ(snap.spans[0].name, "stage");
    EXPECT_EQ(snap.spans[0].depth, 0u);
    EXPECT_EQ(snap.spans[1].name, "sub");
    EXPECT_EQ(snap.spans[1].depth, 1u);
    EXPECT_EQ(snap.spans[2].name, "subsub");
    EXPECT_EQ(snap.spans[2].depth, 2u);
    EXPECT_EQ(snap.spans[3].name, "sub2");
    EXPECT_EQ(snap.spans[3].depth, 1u);
    // A parent's wall time covers its children.
    EXPECT_LE(snap.spans[0].start_ns, snap.spans[1].start_ns);
    EXPECT_GE(snap.spans[0].start_ns + snap.spans[0].wall_ns,
              snap.spans[1].start_ns + snap.spans[1].wall_ns);
}

TEST(ObsTrace, ThreadsGetDistinctTids) {
    scoped_recorder scoped;
    {
        span main_span("main");
        std::thread worker([] { span s("worker"); });
        worker.join();
    }
    const trace_snapshot snap = scoped.rec().trace();
    ASSERT_EQ(snap.spans.size(), 2u);
    EXPECT_NE(snap.spans[0].tid, snap.spans[1].tid);
}

TEST(ObsTrace, SpanCountsAreExported) {
    scoped_recorder scoped;
    {
        span s("stage");
        s.count("segments", 42);
        s.count("pairs", 7);
    }
    const trace_snapshot snap = scoped.rec().trace();
    ASSERT_EQ(snap.spans.size(), 1u);
    ASSERT_EQ(snap.spans[0].args.size(), 2u);
    EXPECT_EQ(snap.spans[0].args[0].key, "segments");
    EXPECT_EQ(snap.spans[0].args[0].value, 42u);
    EXPECT_EQ(snap.spans[0].args[1].key, "pairs");
    EXPECT_EQ(snap.spans[0].args[1].value, 7u);
}

TEST(ObsTrace, ChromeTraceIsValidJson) {
    scoped_recorder scoped;
    {
        span outer("dissimilarity");
        outer.count("pairs", 100);
        { span inner("dissim.matrix"); }
    }
    const std::string json = to_chrome_trace(scoped.rec().trace());
    EXPECT_TRUE(json_checker(json).valid()) << json;
    // Trace-event essentials: complete events with µs timestamps.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dissimilarity\""), std::string::npos);
    EXPECT_NE(json.find("\"dissim.matrix\""), std::string::npos);
    EXPECT_NE(json.find("\"pairs\":100"), std::string::npos);
}

TEST(ObsTrace, PrometheusDumpHasTypedFamilies) {
    scoped_recorder scoped;
    scoped.rec().metrics().add("pcap.datagrams_total", 3.0);
    scoped.rec().metrics().set("pipeline.unique_segments", 17.0);
    scoped.rec().metrics().observe("threadpool.block_seconds", 2e-3);
    const std::string text = to_prometheus(scoped.rec().metrics().snapshot());
    EXPECT_NE(text.find("# TYPE ftc_pcap_datagrams_total counter"), std::string::npos);
    EXPECT_NE(text.find("ftc_pcap_datagrams_total 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ftc_pipeline_unique_segments gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ftc_threadpool_block_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("ftc_threadpool_block_seconds_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("ftc_threadpool_block_seconds_count 1"), std::string::npos);
}

TEST(ObsTrace, CollectStagesKeepsMainThreadOrder) {
    scoped_recorder scoped;
    {
        { span a("pcap.decap"); }
        { span b("segmentation"); }
        {
            span c("dissimilarity");
            { span sub("dissim.matrix"); }  // depth 1: not a stage
        }
        std::thread worker([] { span w("worker-stage"); });
        worker.join();  // other thread: not a stage either
    }
    const std::vector<manifest_stage> stages = collect_stages(scoped.rec().trace());
    ASSERT_EQ(stages.size(), 3u);
    EXPECT_EQ(stages[0].name, "pcap.decap");
    EXPECT_EQ(stages[1].name, "segmentation");
    EXPECT_EQ(stages[2].name, "dissimilarity");
}

TEST(ObsTrace, ManifestSerializesAllSections) {
    run_manifest m;
    m.version = "1.0.0";
    m.command = "run";
    m.options = {{"segmenter", "NEMESYS"}, {"mode", "strict"}};
    m.input_path = "dns.pcap";
    m.input_bytes = 1234;
    m.input_digest = 0xdeadbeefcafef00dULL;
    m.threads = 4;
    m.stages.push_back({"segmentation", 0.5, 0.4, {{"messages", 100}}});
    m.metrics.counters["budget.segments"] = 100.0;
    m.metrics.gauges["pipeline.unique_segments"] = 42.0;
    m.quarantined = 2;
    m.quarantine_by_category = {{"record", 2}};
    m.peak_rss_bytes = 1 << 20;
    m.elapsed_seconds = 0.75;
    m.messages = 100;
    m.unique_segments = 42;
    m.clusters = 7;
    m.noise = 3;
    m.epsilon = 0.16;
    m.min_samples = 6;

    const std::string json = to_json(m);
    EXPECT_TRUE(json_checker(json).valid()) << json;
    for (const char* key :
         {"\"tool\"", "\"version\"", "\"command\"", "\"status\"", "\"options\"",
          "\"input\"", "\"digest_fnv1a64\"", "\"seed\"", "\"threads\"", "\"stages\"",
          "\"quarantine\"", "\"resources\"", "\"peak_rss_bytes\"", "\"result\"",
          "\"counters\"", "\"gauges\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
    EXPECT_NE(json.find("\"seed\":null"), std::string::npos);
    EXPECT_NE(json.find("\"clusters\":7"), std::string::npos);
    EXPECT_NE(json.find("\"segmentation\""), std::string::npos);
}

TEST(ObsTrace, JsonEscapeHandlesControlCharacters) {
    std::string out;
    json_escape(out, "a\"b\\c\n\t\x01");
    EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(ObsTrace, Fnv1a64MatchesReferenceVectors) {
    // Classic FNV-1a test vectors.
    EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace ftc::obs
