// The ledger: tests/ledger.json pins, for a fixed set of captures, what the
// program computes — the FNV-1a 64 digests of the report and of every
// unique segment's labels, the auto-configured clustering, Table I's
// precision, recall, F1/4 and coverage, every work counter and the tracked
// memory peak — and this test requires every variant of every row to
// reproduce its row exactly.
//
// A row is (protocol, messages, seed, segmenter). Each runs the job path
// `ftclust run` and serve sessions share — pcap bytes, decode,
// core::analyze_seeded, render_report — under these variants:
//
//   threads 1|2|4            fresh runs; the only ones compared on work
//                            counters and the tracked peak
//   engine                   seeded with the other engine's substrate
//   max_memory peak          capped at the row's own tracked peak
//   max_memory 3/4 peak      dense rows; the degradation rungs taken are
//                            pinned too
//   checkpoint               observed by a checkpoint manager, then
//   resume <stages>          resumed from each stage prefix it wrote
//   serve                    pcap rows: one in-process serve session,
//                            compared on the report it wrote
//
// On any mismatch the test names the row, the variant and the field, and
// writes the complete actual ledger to ledger.actual.json in its working
// directory. A change that moves output or work refreshes the ledger by
// copying that file over tests/ledger.json, so review sees every moved
// number.
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/manager.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dissim/sparse.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "serve/session.hpp"
#include "serve/spool.hpp"
#include "testing/temp_path.hpp"
#include "util/atomic_file.hpp"
#include "util/diag.hpp"
#include "util/json.hpp"

namespace ftc {
namespace {

namespace fs = std::filesystem;

constexpr const char* kAnnotations = "annotations";

struct row_spec {
    const char* protocol;
    std::size_t messages;
    std::uint64_t seed;
    const char* segmenter;  ///< kAnnotations or a segmentation::make_segmenter name
};

std::string row_name(const row_spec& row) {
    return std::string(row.protocol) + " " + std::to_string(row.messages) + " " +
           row.segmenter + " seed " + std::to_string(row.seed);
}

void PrintTo(const row_spec& row, std::ostream* os) { *os << row_name(row); }

constexpr std::uint64_t kTable1Seed = 20220627;  // bench::kBenchSeed

const row_spec kRows[] = {
    // Table I at 100 messages, and AU at its paper size.
    {"DHCP", 100, kTable1Seed, kAnnotations},
    {"DNS", 100, kTable1Seed, kAnnotations},
    {"NBNS", 100, kTable1Seed, kAnnotations},
    {"NTP", 100, kTable1Seed, kAnnotations},
    {"SMB", 100, kTable1Seed, kAnnotations},
    {"AWDL", 100, kTable1Seed, kAnnotations},
    {"AU", 123, kTable1Seed, kAnnotations},
    // Above and below dissim::kSparseAutoUniques: on NTP 800 the first
    // DBSCAN run prepares nearly every point, so the lanes of the sparse
    // prepare carry almost all of the range work.
    {"NTP", 800, 17, "NEMESYS"},
    {"DHCP", 4000, 17, "NEMESYS"},
    // The serve-open workload's captures.
    {"NTP", 80, 7, "NEMESYS"},
    {"DNS", 200, 7, "NEMESYS"},
    // CSP. The oversize guard walks epsilon down through six DBSCAN runs
    // on the dense matrix's bit rows, each re-testing only the set bits.
    {"DNS", 300, 7, "CSP"},
    // Netzob's pairwise alignment fans out over the threads.
    {"SMB", 300, 17, "Netzob"},
    {"DNS", 500, 17, "Netzob"},
};

/// What one run of a row produced. A serve session yields the report
/// alone; a weighted (occurrence-elided) condensation cannot be scored.
/// A pinned row also holds the degradation counters its run at 3/4 of the
/// peak reported (dense rows only).
struct outcome {
    std::string report_digest;
    bool has_result = false;
    std::string labels_digest;
    double epsilon = 0.0;
    std::uint64_t min_samples = 0;
    std::uint64_t k = 0;
    std::uint64_t reconfigurations = 0;
    std::uint64_t unique_segments = 0;
    std::uint64_t clusters = 0;
    bool has_quality = false;
    double precision = 0.0;
    double recall = 0.0;
    double f_score = 0.0;
    double coverage = 0.0;
    bool has_work = false;
    std::uint64_t peak_tracked_bytes = 0;
    std::map<std::string, double> counters;
    std::optional<std::map<std::string, double>> degraded;
};

std::string hex_digest(const std::string& bytes) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, obs::fnv1a64(bytes.data(), bytes.size()));
    return buf;
}

/// DBSCAN's and the refined label of every unique segment, as decimal
/// text: two runs share this digest only when they put every segment in
/// the same cluster, which the report's per-cluster summary does not show.
std::string labels_digest(const core::pipeline_result& r) {
    std::string text;
    for (const cluster::cluster_labels* labeling : {&r.clustering.labels, &r.final_labels}) {
        for (const int label : labeling->labels) {
            text += std::to_string(label);
            text += ' ';
        }
        text += '\n';
    }
    return hex_digest(text);
}

/// A counter that measures time rather than work.
bool is_time(const std::string& counter) { return counter.ends_with("seconds"); }

// --- the ledger file ----------------------------------------------------

/// Doubles at 17 significant digits parse back to the same bits.
std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string render_ledger(const std::map<std::string, outcome>& rows) {
    std::string out = "{\n  \"rows\": [";
    bool first_row = true;
    for (const row_spec& spec : kRows) {
        const auto it = rows.find(row_name(spec));
        if (it == rows.end()) {
            continue;
        }
        const outcome& o = it->second;
        out += first_row ? "\n" : ",\n";
        first_row = false;
        const auto field = [&](const char* key, const std::string& value) {
            out += "      \"" + std::string(key) + "\": " + value + ",\n";
        };
        const auto object = [&](const std::map<std::string, double>& values) {
            std::string text = "{";
            for (const auto& [name, value] : values) {
                text += text.size() == 1 ? "\n" : ",\n";
                text += "        \"" + name + "\": " + number(value);
            }
            return text + (values.empty() ? "}" : "\n      }");
        };
        out += "    {\n";
        field("row", "\"" + it->first + "\"");
        field("report_fnv1a64", "\"" + o.report_digest + "\"");
        field("labels_fnv1a64", "\"" + o.labels_digest + "\"");
        field("epsilon", number(o.epsilon));
        field("min_samples", std::to_string(o.min_samples));
        field("k", std::to_string(o.k));
        field("reconfigurations", std::to_string(o.reconfigurations));
        field("unique_segments", std::to_string(o.unique_segments));
        field("clusters", std::to_string(o.clusters));
        if (o.has_quality) {
            field("precision", number(o.precision));
            field("recall", number(o.recall));
            field("f_score", number(o.f_score));
            field("coverage", number(o.coverage));
        }
        field("peak_tracked_bytes", std::to_string(o.peak_tracked_bytes));
        if (o.degraded.has_value()) {
            field("degraded_at_3_4_peak", object(*o.degraded));
        }
        out += "      \"counters\": " + object(o.counters) + "\n    }";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::map<std::string, outcome> parse_ledger(const std::string& text) {
    std::map<std::string, outcome> rows;
    const util::json_value doc = util::parse_json(text);
    for (const util::json_value& r : doc.at("rows").as_array()) {
        outcome o;
        o.report_digest = r.at("report_fnv1a64").as_string();
        o.has_result = o.has_work = true;
        o.labels_digest = r.at("labels_fnv1a64").as_string();
        o.epsilon = r.at("epsilon").as_number();
        const auto count = [&](const char* key) {
            return static_cast<std::uint64_t>(r.at(key).as_number());
        };
        o.min_samples = count("min_samples");
        o.k = count("k");
        o.reconfigurations = count("reconfigurations");
        o.unique_segments = count("unique_segments");
        o.clusters = count("clusters");
        if (r.find("precision") != nullptr) {
            o.has_quality = true;
            o.precision = r.at("precision").as_number();
            o.recall = r.at("recall").as_number();
            o.f_score = r.at("f_score").as_number();
            o.coverage = r.at("coverage").as_number();
        }
        o.peak_tracked_bytes = count("peak_tracked_bytes");
        const auto numbers = [](const util::json_value& object) {
            std::map<std::string, double> out;
            for (const auto& [name, value] : object.as_object()) {
                out[name] = value.as_number();
            }
            return out;
        };
        if (const util::json_value* d = r.find("degraded_at_3_4_peak")) {
            o.degraded = numbers(*d);
        }
        o.counters = numbers(r.at("counters"));
        rows[r.at("row").as_string()] = std::move(o);
    }
    return rows;
}

fs::path ledger_path() { return fs::path(__FILE__).parent_path() / "ledger.json"; }

// --- running a row -------------------------------------------------------

bool annotated(const row_spec& row) { return std::string_view{row.segmenter} == kAnnotations; }

/// A row's input: the pcap bytes `ftclust generate` writes for it, and the
/// ground truth dissected from the decoded payloads.
struct capture {
    byte_vector raw;
    protocols::trace truth;
    /// Whether the truth annotates the bytes the pipeline clusters. SMB's
    /// dissector strips the NBSS prefix that `ftclust run` clusters with.
    bool scored = false;
};

/// The messages a row's pipeline clusters, decoded from its pcap bytes as
/// `ftclust run` decodes them. An annotated row clusters the dissected
/// messages its truth annotates, as bench_common.hpp does.
std::vector<byte_vector> decode(const row_spec& row, const byte_vector& raw,
                                diag::error_sink& sink) {
    std::vector<byte_vector> payloads =
        protocols::capture_payloads(pcap::from_pcap_bytes(raw, sink), sink);
    if (annotated(row)) {
        return segmentation::message_bytes(protocols::trace_from_payloads(row.protocol, payloads));
    }
    return payloads;
}

capture make_capture(const row_spec& row) {
    capture c;
    c.raw = pcap::to_pcap_bytes(protocols::trace_to_capture(
        protocols::generate_trace(row.protocol, row.messages, row.seed)));
    const std::vector<byte_vector> payloads =
        protocols::capture_payloads(pcap::from_pcap_bytes(c.raw));
    c.truth = protocols::trace_from_payloads(row.protocol, payloads);
    c.scored = annotated(row) || segmentation::message_bytes(c.truth) == payloads;
    return c;
}

/// The job path on already decoded \p messages. An annotated row seeds its
/// ground-truth segmentation, as core::analyze_segments does.
core::pipeline_result analyze(const row_spec& row, const capture& c,
                              const std::vector<byte_vector>& messages,
                              core::pipeline_seed seed, const core::pipeline_options& opt,
                              diag::error_sink& sink) {
    if (annotated(row)) {
        if (!seed.segments.has_value()) {
            seed.segments = segmentation::segments_from_annotations(c.truth);
        }
        return core::analyze_seeded(messages, nullptr, std::move(seed), opt, sink);
    }
    const auto segmenter = segmentation::make_segmenter(row.segmenter, opt.threads);
    return core::analyze_seeded(messages, segmenter.get(), std::move(seed), opt, sink);
}

/// Decode, then analyze: `ftclust run` in process.
core::pipeline_result run_job(const row_spec& row, const capture& c,
                              const core::pipeline_options& opt, core::pipeline_seed seed = {}) {
    diag::error_sink sink(diag::policy::strict);
    const std::vector<byte_vector> messages = decode(row, c.raw, sink);
    return analyze(row, c, messages, std::move(seed), opt, sink);
}

outcome observe(const capture& c, const core::pipeline_result& r) {
    outcome o;
    o.report_digest = hex_digest(core::render_report(core::summarize_clusters(r)));
    o.has_result = true;
    o.labels_digest = labels_digest(r);
    o.epsilon = r.clustering.config.epsilon;
    o.min_samples = r.clustering.config.min_samples;
    o.k = r.clustering.config.selected_k;
    o.reconfigurations = r.clustering.reconfigurations;
    o.unique_segments = r.unique.size();
    o.clusters = r.final_labels.cluster_count;
    if (c.scored && !r.unique.occurrences_elided) {
        // Scored as bench_common.hpp scores Table I.
        const core::typed_segments typed = core::assign_types(c.truth, r.unique);
        const core::clustering_quality q =
            core::evaluate_clustering(r.final_labels, typed, c.truth.total_bytes());
        o.has_quality = true;
        o.precision = q.precision;
        o.recall = q.recall;
        o.f_score = q.f_score;
        o.coverage = q.coverage;
    }
    return o;
}

/// Lanes of every variant but the fresh runs.
constexpr std::size_t kThreads = 4;

core::pipeline_options with_threads(std::size_t threads) {
    core::pipeline_options opt;
    opt.threads = threads;
    return opt;
}

std::vector<std::size_t> every_index(std::size_t n) {
    std::vector<std::size_t> out(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
}

// --- comparing -----------------------------------------------------------

/// Doubles print at full precision, so a one-ulp move shows.
template <typename T>
std::string show(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
        return number(value);
    } else {
        return ::testing::PrintToString(value);
    }
}

template <typename T>
void expect_field(const std::string& where, const std::string& field, const T& expected,
                  const T& actual) {
    if (!(expected == actual)) {
        ADD_FAILURE() << where << ": " << field << " is " << show(actual)
                      << ", the ledger holds " << show(expected);
    }
}

/// Compare every field \p actual carries against the pinned row.
void matches(const outcome& pinned, const outcome& actual, const std::string& row,
             const std::string& variant) {
    const std::string where = row + " [" + variant + "]";
    expect_field(where, "report_fnv1a64", pinned.report_digest, actual.report_digest);
    if (actual.has_result) {
        expect_field(where, "labels_fnv1a64", pinned.labels_digest, actual.labels_digest);
        expect_field(where, "epsilon", pinned.epsilon, actual.epsilon);
        expect_field(where, "min_samples", pinned.min_samples, actual.min_samples);
        expect_field(where, "k", pinned.k, actual.k);
        expect_field(where, "reconfigurations", pinned.reconfigurations,
                     actual.reconfigurations);
        expect_field(where, "unique_segments", pinned.unique_segments,
                     actual.unique_segments);
        expect_field(where, "clusters", pinned.clusters, actual.clusters);
    }
    if (actual.has_work) {
        expect_field(where, "scored", pinned.has_quality, actual.has_quality);
    }
    if (actual.has_quality) {
        expect_field(where, "precision", pinned.precision, actual.precision);
        expect_field(where, "recall", pinned.recall, actual.recall);
        expect_field(where, "f_score", pinned.f_score, actual.f_score);
        expect_field(where, "coverage", pinned.coverage, actual.coverage);
    }
    if (actual.has_work) {
        expect_field(where, "peak_tracked_bytes", pinned.peak_tracked_bytes,
                     actual.peak_tracked_bytes);
        for (const auto& [name, value] : pinned.counters) {
            const auto it = actual.counters.find(name);
            if (it == actual.counters.end()) {
                ADD_FAILURE() << where << ": counter " << name << " was not published";
            } else {
                expect_field(where, "counter " + name, value, it->second);
            }
        }
        for (const auto& [name, value] : actual.counters) {
            if (pinned.counters.count(name) == 0) {
                ADD_FAILURE() << where << ": counter " << name << " = " << value
                              << " is not in the ledger";
            }
        }
    }
}

// --- the variants ----------------------------------------------------------

/// A fresh run under a recorder: the only variant that carries work.
outcome fresh(const row_spec& row, const capture& c, std::size_t threads) {
    const std::uint64_t baseline = mem::current_bytes();
    mem::reset_peak();
    const obs::scoped_recorder recorder;
    const core::pipeline_result r = run_job(row, c, with_threads(threads));
    const std::uint64_t peak = mem::peak_bytes() - baseline;
    const obs::metrics_snapshot metrics = recorder.rec().metrics().snapshot();
    outcome o = observe(c, r);
    o.has_work = true;
    o.peak_tracked_bytes = peak;
    for (const auto& [name, value] : metrics.counters) {
        if (!is_time(name)) {
            o.counters[name] = value;
        }
    }
    return o;
}

/// A run under a memory cap of \p cap tracked bytes; returns the
/// mem.degrade.* counters it reported.
std::map<std::string, double> capped(const row_spec& row, const capture& c,
                                     const outcome& pinned, std::uint64_t cap,
                                     const std::string& variant) {
    const obs::scoped_recorder recorder;
    core::pipeline_options opt = with_threads(kThreads);
    opt.max_memory = static_cast<std::size_t>(cap);
    const mem::governor governor(mem::current_bytes() + cap);
    matches(pinned, observe(c, run_job(row, c, opt)), row_name(row), variant);
    std::map<std::string, double> degraded;
    for (const auto& [counter, value] : recorder.rec().metrics().snapshot().counters) {
        if (counter.starts_with("mem.degrade.")) {
            degraded[counter] = value;
        }
    }
    return degraded;
}

/// Seeded with the substrate of the engine a fresh run does not build,
/// over the same unique values.
void other_engine(const row_spec& row, const capture& c, const outcome& pinned, bool sparse) {
    const core::pipeline_options opt = with_threads(kThreads);
    diag::error_sink sink(diag::policy::strict);
    const std::vector<byte_vector> messages = decode(row, c.raw, sink);
    core::pipeline_seed seed;
    seed.segments =
        annotated(row)
            ? segmentation::segments_from_annotations(c.truth)
            : segmentation::make_segmenter(row.segmenter, kThreads)->run(messages, deadline{});
    seed.unique = dissim::condense(messages, *seed.segments, opt.min_segment_length);
    if (sparse) {
        seed.matrix.emplace(seed.unique->values, deadline{}, kThreads);
    } else {
        dissim::sparse_build_options sopts;
        sopts.knn_cap = cluster::knn_k_max(seed.unique->size());
        sopts.threads = kThreads;
        seed.neighbors = dissim::sparse_neighborhood(seed.unique->values, sopts).capped();
    }
    matches(pinned, observe(c, analyze(row, c, messages, std::move(seed), opt, sink)),
            row_name(row), sparse ? "engine: dense seed" : "engine: sparse seed");
}

/// Checkpointed into \p dir, then resumed from each stage prefix the
/// checkpoint holds, as `ftclust run --checkpoint DIR [--resume]` does.
void checkpointed(const row_spec& row, const capture& c, const outcome& pinned, bool sparse,
                  const fs::path& dir) {
    const std::string name = row_name(row);
    const ckpt::options_fingerprint fp = ckpt::fingerprint(
        with_threads(kThreads), row.segmenter, obs::fnv1a64(c.raw.data(), c.raw.size()));
    const auto run = [&](bool resume, const std::string& variant) {
        ckpt::checkpoint_manager manager(dir, fp);
        core::pipeline_options opt = with_threads(kThreads);
        opt.observer = &manager;
        diag::error_sink sink(diag::policy::strict);
        const std::vector<byte_vector> messages = decode(row, c.raw, sink);
        ckpt::restored_state restored;
        if (resume) {
            restored = manager.load(messages, sink);
        } else if (annotated(row)) {
            // A seeded segmentation is not announced; persist it as a
            // segmenter's run would have been.
            restored.seed.segments = segmentation::segments_from_annotations(c.truth);
            manager.on_segments(*restored.seed.segments, every_index(messages.size()));
        }
        const std::vector<byte_vector>& input =
            resume && restored.has_segments() ? restored.messages : messages;
        matches(pinned, observe(c, analyze(row, c, input, std::move(restored.seed), opt, sink)),
                name, variant);
        manager.mark_complete();
        return restored.stages;
    };
    run(false, "checkpoint");

    const std::pair<const char*, const char*> files[] = {
        {ckpt::checkpoint_manager::kSegmentsFile, "segmentation"},
        {ckpt::checkpoint_manager::kNeighborsFile, "dissimilarity"},
        {ckpt::checkpoint_manager::kClusteringFile, "clustering"},
    };
    std::vector<std::pair<const char*, const char*>> written;
    for (const auto& file : files) {
        if (fs::exists(dir / file.first)) {
            written.push_back(file);
        }
    }
    EXPECT_EQ(written.size(), sparse ? 3u : 2u) << name << " [checkpoint]: files written";
    // Longest prefix first: a resume writes the stages it computes again,
    // so each shorter prefix removes the files past it once more.
    for (std::size_t prefix = written.size(); prefix >= 1; --prefix) {
        std::vector<std::string> stages;
        std::string variant = "resume";
        for (std::size_t i = 0; i < written.size(); ++i) {
            if (i < prefix) {
                stages.emplace_back(written[i].second);
                variant += std::string(" ") + written[i].second;
            } else {
                fs::remove(dir / written[i].first);
            }
        }
        EXPECT_EQ(run(true, variant), stages) << name << " [" << variant << "]: stages restored";
    }
}

/// One serve session: the daemon's worker runs the same job path on the
/// journaled bytes.
void served(const row_spec& row, const capture& c, const outcome& pinned, const fs::path& dir) {
    const std::string name = row_name(row);
    serve::spool journal(dir);
    serve::serve_options opt;
    opt.segmenter = row.segmenter;
    opt.sessions = 1;
    opt.pipeline_threads = kThreads;
    serve::session_manager sessions(journal, opt);
    sessions.start();
    const serve::admission verdict = sessions.submit(byte_view{c.raw});
    ASSERT_TRUE(verdict.accepted) << name << " [serve]: " << verdict.reason;
    sessions.drain();
    const std::optional<serve::job_status> status = sessions.status(verdict.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(serve::job_state_name(status->state), "done")
        << name << " [serve]: " << status->error;
    const std::optional<byte_vector> report = util::read_file(journal.report_file(verdict.id));
    ASSERT_TRUE(report.has_value()) << name << " [serve]: no report";
    outcome o;
    o.report_digest = hex_digest(std::string(report->begin(), report->end()));
    matches(pinned, o, name, "serve");
}

class Ledger : public ::testing::TestWithParam<row_spec> {
public:
    static void SetUpTestSuite() {
        if (const std::optional<byte_vector> bytes = util::read_file(ledger_path())) {
            pinned_ = parse_ledger(std::string(bytes->begin(), bytes->end()));
        }
    }

    /// On any mismatch, write the complete actual ledger: the rows this run
    /// measured, and the pinned ones it did not run.
    static void TearDownTestSuite() {
        if (!mismatch_) {
            return;
        }
        std::map<std::string, outcome> rows = pinned_;
        for (const auto& [name, o] : actual_) {
            rows[name] = o;
        }
        const fs::path out = fs::current_path() / "ledger.actual.json";
        util::atomic_write_file(out, std::string_view{render_ledger(rows)});
        std::fprintf(stderr, "wrote the actual ledger to %s\n", out.string().c_str());
    }

protected:
    void SetUp() override {
        // Per process: two builds' suites may run at once.
        work_dir_ = testing::temp_path("ftc_test_ledger");
        fs::remove_all(work_dir_);
    }
    void TearDown() override {
        fs::remove_all(work_dir_);
        if (HasFailure()) {
            mismatch_ = true;
        }
    }

    static std::map<std::string, outcome> pinned_;
    static std::map<std::string, outcome> actual_;
    static bool mismatch_;
    fs::path work_dir_;
};

std::map<std::string, outcome> Ledger::pinned_;
std::map<std::string, outcome> Ledger::actual_;
bool Ledger::mismatch_ = false;

TEST_P(Ledger, EveryVariantReproducesTheRow) {
    const row_spec& row = GetParam();
    const std::string name = row_name(row);
    const capture c = make_capture(row);

    // Fresh runs. Threads 1 is the actual row; without a pinned row the
    // variants are held to it, so they still agree with each other.
    outcome& measured = actual_[name] = fresh(row, c, 1);
    const auto pinned_it = pinned_.find(name);
    if (pinned_it == pinned_.end()) {
        ADD_FAILURE() << name << " is not in " << ledger_path().string();
    }
    const outcome pinned = pinned_it != pinned_.end() ? pinned_it->second : measured;
    matches(pinned, measured, name, "threads 1");
    for (const std::size_t threads : {2, 4}) {
        matches(pinned, fresh(row, c, threads), name, "threads " + std::to_string(threads));
    }
    const bool sparse = measured.unique_segments >= dissim::kSparseAutoUniques;

    // A memory cap at the pinned peak renders the unbounded run. A quarter
    // below it, a dense row degrades and still does; the rungs it took are
    // pinned too: the sparse engine where the matrix dominates the peak, the
    // weighted condensation where occurrence lists do.
    capped(row, c, pinned, pinned.peak_tracked_bytes, "max_memory peak");
    if (!sparse) {
        const std::string variant = "max_memory 3/4 peak";
        measured.degraded = capped(row, c, pinned, pinned.peak_tracked_bytes * 3 / 4, variant);
        expect_field(name + " [" + variant + "]", "degraded_at_3_4_peak",
                     pinned.degraded.value_or(std::map<std::string, double>{}),
                     *measured.degraded);
    }

    // The other variants install neither a recorder nor a governor, so
    // they run side by side.
    std::vector<std::future<void>> side;
    side.push_back(std::async(std::launch::async, [&] { other_engine(row, c, pinned, sparse); }));
    side.push_back(std::async(std::launch::async,
                              [&] { checkpointed(row, c, pinned, sparse, work_dir_ / "ckpt"); }));
    if (!annotated(row)) {
        side.push_back(
            std::async(std::launch::async, [&] { served(row, c, pinned, work_dir_ / "spool"); }));
    }
    for (std::future<void>& f : side) {
        f.get();
    }
}

INSTANTIATE_TEST_SUITE_P(Rows, Ledger, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<row_spec>& info) {
                             std::string id = row_name(info.param);
                             for (char& ch : id) {
                                 if (!std::isalnum(static_cast<unsigned char>(ch))) {
                                     ch = '_';
                                 }
                             }
                             return id;
                         });

TEST(LedgerFile, EveryPinnedRowHasACapture) {
    const std::optional<byte_vector> bytes = util::read_file(ledger_path());
    ASSERT_TRUE(bytes.has_value()) << "cannot read " << ledger_path().string();
    for (const auto& [name, o] : parse_ledger(std::string(bytes->begin(), bytes->end()))) {
        bool listed = false;
        for (const row_spec& row : kRows) {
            listed |= row_name(row) == name;
        }
        EXPECT_TRUE(listed) << "ledger row " << name << " has no capture in kRows";
    }
}

}  // namespace
}  // namespace ftc
