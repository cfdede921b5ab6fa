/// \file ftclust_cli.cpp
/// The ftclust command line tool: analyze capture files of unknown binary
/// protocols, synthesize evaluation traces, and score the pipeline against
/// ground truth.
///
/// Subcommands:
///   ftclust analyze  <capture.pcap> [--segmenter NEMESYS|CSP|Netzob]
///                    [--budget SECONDS] [--max-segments N]
///                    [--max-bytes N] [--strict|--lenient] [--threads N]
///                    [--semantics] [--trace-out FILE] [--metrics-out FILE]
///                    [--manifest-out FILE]
///       Cluster the capture's messages into pseudo data types and print
///       the analyst report. Works on UDP/TCP payloads (Ethernet/IPv4) and
///       raw/user0 captures. --lenient quarantines malformed pcap records
///       and frames (counted and reported) instead of aborting at the
///       first one; --strict (the default) keeps the legacy fail-fast
///       behavior. --budget / --max-segments / --max-bytes bound the
///       run; exceeding a bound exits with code 3 and a partial-progress
///       report. --max-memory caps the tracked heap footprint (suffixes
///       K/M/G/T accepted): under pressure the pipeline first dedups
///       segment occurrence lists, then builds the sparse engine in place
///       of a dissimilarity matrix that would not fit, and only when even
///       the degraded footprint cannot fit exits with code 3, a
///       partial-progress report and manifest status "memory-exceeded".
///       Checkpoint snapshots that would not fit are skipped, never fatal.
///       --threads bounds the worker count of Netzob's pairwise
///       alignment and of the dissimilarity/auto-configuration stages
///       (0 = all hardware threads, 1 = serial); the result is identical
///       either way. The pipeline picks the epsilon-neighborhood engine
///       itself: the sparse engine (capped per-point neighbor lists with
///       length-bound bucket pruning) at scale or under memory pressure,
///       the full pairwise matrix otherwise. The engines serve
///       bitwise-identical values, so the report is the same either way.
///       `ftclust run` is an alias for `analyze`. Any of --trace-out
///       (Chrome trace-event JSON for chrome://tracing), --metrics-out
///       (Prometheus-style text) and --manifest-out (machine-readable
///       run.json: options, input digest, stage timings, quarantine
///       summary, peak RSS, final cluster metrics) turns observability on;
///       without them instrumentation stays a no-op and clustering output
///       is bitwise identical either way. --report-out writes the analyst
///       report to a file as well as stdout. All output files are written
///       atomically (tmp + fsync + rename).
///
///       --checkpoint DIR persists each completed stage whose snapshot
///       loads faster than it computes into DIR (segments.ckpt,
///       neighbors.ckpt on the sparse engine, clustering.ckpt,
///       manifest.json; format in src/ckpt/format.hpp; a dense matrix is
///       rebuilt on resume) so a crashed, killed or
///       budget-tripped run can continue where it stopped: --resume
///       restores every snapshot that validates against the current
///       options and input, recomputes the rest, and — every stage being
///       bitwise deterministic — produces output identical to an
///       uninterrupted run. SIGINT/SIGTERM request a graceful stop: the
///       run unwinds at the next cancellation point, writes a final
///       status=interrupted checkpoint manifest plus any requested
///       observability outputs, and exits with 128+signo. A second signal
///       kills the process the default way.
///
///       --telemetry-out FILE streams an NDJSON time-series (schema
///       "ftc.telemetry.v1": progress, tracked-heap gauges, the full
///       counter set) sampled every --telemetry-interval-ms (default 500)
///       by a read-only background thread; the stream always ends with
///       exactly one final sample carrying the run status, on every exit
///       path including budget/memory trips and SIGINT/SIGTERM.
///       --progress renders a live stage/rate/ETA line on stderr (an
///       in-place line on a TTY, rate-limited plain lines otherwise).
///       --metrics-listen HOST:PORT serves the live Prometheus text
///       exposition on GET /metrics while the run lasts (port 0 =
///       ephemeral, the bound port is printed). All three are observational
///       only: clustering output is bitwise identical with them on or off.
///
///       Every subcommand rejects what it does not parse: an unknown
///       --flag, a value flag without its value or a stray operand prints
///       the usage and exits with code 2 before any input is read.
///
///   ftclust serve --spool DIR [--listen HOST:PORT] ...
///       Run the clustering pipeline as a long-lived, crash-recoverable
///       daemon. Jobs are submitted as pcap bytes over local HTTP
///       (POST /jobs), each runs as a fault-isolated session — its own
///       memory governor, diagnostics sink and wall-clock budget — on a
///       bounded worker pool. Every accepted job is journaled to the spool
///       directory before the 202 ack, so kill -9 re-runs the jobs in
///       flight from their journaled payloads: on restart the daemon
///       replays unfinished jobs and produces reports byte-identical to
///       uninterrupted runs. Overload (full queue, memory pressure) is
///       shed with 503 + Retry-After, and pressure first degrades new
///       sessions (halved per-session memory cap — result-neutral) before
///       refusing. GET /jobs/<id> returns status, GET /jobs/<id>/report the
///       finished report, GET /healthz the queue/pressure snapshot and
///       GET /metrics the Prometheus text exposition. SIGINT/SIGTERM drain
///       gracefully; in-flight sessions unwind at the next cancellation
///       point and replay on restart.
///
///   ftclust version [--json]
///       Print build provenance: version, git SHA, build type, and the
///       sliding-Canberra kernel (`lut`, the one portable path).
///
///   ftclust generate <protocol> <messages> <out.pcap> [--seed N]
///       Synthesize a deduplicated trace of one of the built-in protocols
///       (NTP, DNS, NBNS, DHCP, SMB, AWDL, AU) and write it as pcap.
///
///   ftclust corrupt  <in.pcap> <out.pcap> [--fraction F] [--seed N]
///       Fault-inject a capture (bit flips in checksum-protected headers,
///       snapped records, corrupt length fields) to exercise lenient mode.
///
///   ftclust evaluate <protocol> <messages> [--segmenter NAME] [--seed N]
///       Generate a trace with ground truth and report clustering quality
///       (precision, recall, F1/4, coverage) for the chosen segmentation
///       ("true" = ground-truth fields).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "ckpt/manager.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/semantics.hpp"
#include "dissim/kernel.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "pcap/pcap.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "serve/daemon.hpp"
#include "testing/alloc_fault.hpp"
#include "testing/sock_fault.hpp"
#include "testing/corrupter.hpp"
#include "util/atomic_file.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"
#include "util/http.hpp"
#include "util/interrupt.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ftc;

int usage() {
    std::fputs(
        "usage:\n"
        "  ftclust analyze  <capture.pcap> [--segmenter NEMESYS|CSP|Netzob]\n"
        "                   [--budget SECONDS] [--max-segments N]\n"
        "                   [--max-bytes N] [--max-memory BYTES[K|M|G]]\n"
        "                   [--strict|--lenient] [--threads N] [--semantics]\n"
        "                   [--trace-out FILE] [--metrics-out FILE]\n"
        "                   [--manifest-out FILE] [--report-out FILE]\n"
        "                   [--checkpoint DIR] [--resume]\n"
        "                   [--telemetry-out FILE] [--telemetry-interval-ms N]\n"
        "                   [--progress] [--metrics-listen HOST:PORT]\n"
        "  ftclust run      (alias for analyze)\n"
        "  ftclust serve    --spool DIR [--listen HOST:PORT] [--sessions N]\n"
        "                   [--queue-depth N] [--max-body BYTES[K|M|G]]\n"
        "                   [--session-max-memory BYTES[K|M|G]]\n"
        "                   [--io-deadline-ms N] [--retry-after SECONDS]\n"
        "                   [--segmenter NAME] [--budget SECONDS] [--threads N]\n"
        "                   [--strict] [--max-memory BYTES[K|M|G]]\n"
        "                   [--telemetry-out FILE] [--telemetry-interval-ms N]\n"
        "  ftclust version  [--json]\n"
        "  ftclust generate <protocol> <messages> <out.pcap> [--seed N]\n"
        "  ftclust corrupt  <in.pcap> <out.pcap> [--fraction F] [--seed N]\n"
        "  ftclust evaluate <protocol> <messages> [--segmenter NAME|true] [--seed N]\n"
        "                   [--threads N]\n"
        "protocols: NTP DNS NBNS DHCP SMB AWDL AU\n",
        stderr);
    return 2;
}

/// Value of "--flag value" in argv, or fallback.
const char* flag_value(int argc, char** argv, const char* flag, const char* fallback) {
    for (int i = 0; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return argv[i + 1];
        }
    }
    return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            return true;
        }
    }
    return false;
}

/// Check a subcommand's argv against what it parses: \p operands leading
/// tokens, then only flags from \p values (each followed by its value) and
/// \p switches. Names the first token that breaks this on stderr and
/// returns false; the caller then prints the usage and exits 2, before it
/// reads any input.
bool accepts(int argc, char** argv, int operands,
             std::initializer_list<std::string_view> values,
             std::initializer_list<std::string_view> switches = {}) {
    const auto listed = [](std::initializer_list<std::string_view> set, std::string_view f) {
        return std::find(set.begin(), set.end(), f) != set.end();
    };
    for (int i = 0; i < argc; ++i) {
        const std::string_view token = argv[i];
        const bool is_flag = token.starts_with("--");
        if (i < operands) {
            if (is_flag) {
                std::fprintf(stderr, "missing operand before %s\n", argv[i]);
                return false;
            }
        } else if (listed(values, token)) {
            if (i + 1 == argc || std::string_view{argv[i + 1]}.starts_with("--")) {
                std::fprintf(stderr, "%s needs a value\n", argv[i]);
                return false;
            }
            ++i;
        } else if (!listed(switches, token)) {
            std::fprintf(stderr, "%s %s\n", is_flag ? "unknown flag" : "unexpected argument",
                         argv[i]);
            return false;
        }
    }
    return true;
}

/// Read a whole file into memory; the CLI digests the raw bytes for the
/// run manifest before handing them to the pcap parser.
byte_vector read_input_bytes(const std::string& path) {
    std::optional<byte_vector> bytes = util::read_file(path);
    if (!bytes.has_value()) {
        throw ftc::error("cannot open " + path);
    }
    return std::move(*bytes);
}

/// All exporter outputs go through the atomic writer: a reader (or a
/// crashed run) sees either the previous complete file or the new one,
/// never a torn write. An unwritable target throws ftc::error, which main()
/// turns into a non-zero exit with the diagnostic on stderr.
void write_text_file(const char* path, const std::string& text) {
    util::atomic_write_file(std::filesystem::path{path}, std::string_view{text});
}

/// First SIGINT/SIGTERM requests a graceful stop: one lock-free atomic
/// store, the only thing an async-signal-safe handler may do here. Every
/// cooperative cancellation point in the pipeline (deadline::check) then
/// raises ftc::interrupted_error, which unwinds through the normal
/// budget-exceeded paths — final checkpoint manifest, observability
/// outputs, partial-progress report. A second signal restores the default
/// disposition and re-raises, so a hung run can always be killed.
extern "C" void stop_signal_handler(int signal_number) {
    if (interrupt_requested()) {
        std::signal(signal_number, SIG_DFL);
        std::raise(signal_number);
        return;
    }
    request_interrupt(signal_number);
}

/// Idempotent: handlers are installed once per process.
void install_stop_handlers() {
    static const bool installed = [] {
        std::signal(SIGINT, stop_signal_handler);
        std::signal(SIGTERM, stop_signal_handler);
        return true;
    }();
    (void)installed;
}

int cmd_analyze(const char* cmd_name, int argc, char** argv) {
    if (argc < 1 ||
        !accepts(argc, argv, 1,
                 {"--segmenter", "--budget", "--max-segments", "--max-bytes", "--max-memory",
                  "--threads", "--trace-out", "--metrics-out", "--manifest-out",
                  "--report-out", "--checkpoint", "--telemetry-out",
                  "--telemetry-interval-ms", "--metrics-listen"},
                 {"--strict", "--lenient", "--semantics", "--resume", "--progress"})) {
        return usage();
    }
    const std::string path = argv[0];
    const std::string segmenter_name = flag_value(argc, argv, "--segmenter", "NEMESYS");
    const double budget =
        util::parse_double(flag_value(argc, argv, "--budget", "120"), "--budget");
    // --strict is the default; accepting it explicitly lets scripts pin the
    // policy, and an explicit --strict wins over a stray --lenient.
    const bool lenient =
        has_flag(argc, argv, "--lenient") && !has_flag(argc, argv, "--strict");
    diag::error_sink sink(lenient ? diag::policy::lenient : diag::policy::strict);

    const char* trace_out = flag_value(argc, argv, "--trace-out", nullptr);
    const char* metrics_out = flag_value(argc, argv, "--metrics-out", nullptr);
    const char* manifest_out = flag_value(argc, argv, "--manifest-out", nullptr);
    const char* report_out = flag_value(argc, argv, "--report-out", nullptr);
    const char* checkpoint_dir = flag_value(argc, argv, "--checkpoint", nullptr);
    const bool resume = has_flag(argc, argv, "--resume");
    if (resume && checkpoint_dir == nullptr) {
        std::fputs("--resume requires --checkpoint DIR\n", stderr);
        return usage();
    }
    const char* telemetry_out = flag_value(argc, argv, "--telemetry-out", nullptr);
    const char* metrics_listen = flag_value(argc, argv, "--metrics-listen", nullptr);
    const bool progress = has_flag(argc, argv, "--progress");
    const double telemetry_interval_ms = util::parse_double(
        flag_value(argc, argv, "--telemetry-interval-ms", "500"), "--telemetry-interval-ms");

    install_stop_handlers();
    // Any observability output installs the recorder; otherwise every hook
    // in the pipeline stays a single null-pointer check. The telemetry
    // sampler and the scrape endpoint snapshot the same registry, so they
    // count as outputs too. Spans are kept only for their two readers, the
    // trace and the manifest's stage table.
    std::optional<obs::scoped_recorder> recorder;
    if (trace_out != nullptr || manifest_out != nullptr) {
        recorder.emplace(obs::spans::keep);
    } else if (metrics_out != nullptr || telemetry_out != nullptr || metrics_listen != nullptr) {
        recorder.emplace(obs::spans::drop);
    }

    // Live observers, both RAII: the sampler's destructor runs during any
    // stack unwind out of this function, so the NDJSON stream ends with its
    // final status sample on every exit path for free; the server stops
    // accepting the same way. Status is pessimistically "error" until an
    // exit path below knows better.
    std::optional<obs::sampler> sampler;
    if (telemetry_out != nullptr || progress) {
        obs::sampler_options sopt;
        sopt.telemetry_path = telemetry_out != nullptr ? telemetry_out : "";
        sopt.interval = std::chrono::milliseconds(
            telemetry_interval_ms > 0 ? static_cast<long>(telemetry_interval_ms) : 500);
        sopt.progress = progress;
        sampler.emplace(recorder.has_value() ? &recorder->rec() : nullptr, std::move(sopt));
        sampler->set_status("error");
    }
    std::unique_ptr<util::http::server> scrape;
    if (metrics_listen != nullptr) {
        scrape = util::http::serve_metrics(
            recorder->rec(), util::http::parse_listen_address(metrics_listen, "--metrics-listen"));
        std::printf("serving metrics on port %u\n", scrape->port());
    }

    const byte_vector raw = read_input_bytes(path);
    const pcap::capture cap = pcap::from_pcap_bytes(raw, sink);
    const std::vector<byte_vector> messages = protocols::capture_payloads(cap, sink);
    std::printf("loaded %zu packets -> %zu application messages (%s mode)\n",
                cap.packets.size(), messages.size(), lenient ? "lenient" : "strict");

    core::pipeline_options opt;
    opt.budget_seconds = budget;
    opt.max_segments = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--max-segments", "0"), "--max-segments"));
    opt.max_bytes = static_cast<std::size_t>(
        util::parse_size_bytes(flag_value(argc, argv, "--max-bytes", "0"), "--max-bytes"));
    opt.max_memory = static_cast<std::size_t>(util::parse_size_bytes(
        flag_value(argc, argv, "--max-memory", "0"), "--max-memory"));
    opt.threads = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--threads", "0"), "--threads"));

    // Install the memory governor here rather than leaving it to the
    // pipeline: checkpoint loading below charges the unique segments it
    // restores before the pipeline starts, and that charge must count
    // against the run's budget.
    std::optional<mem::governor> governor;
    if (opt.max_memory > 0) {
        governor.emplace(opt.max_memory);
    }

    // Checkpointing hooks the pipeline's stage boundaries; the fingerprint
    // binds every snapshot to these options and this input.
    std::optional<ckpt::checkpoint_manager> manager;
    std::vector<std::string> restored_stages;
    if (checkpoint_dir != nullptr) {
        manager.emplace(checkpoint_dir,
                        ckpt::fingerprint(opt, segmenter_name,
                                          obs::fnv1a64(raw.data(), raw.size())));
        opt.observer = &*manager;
    }

    // Everything a machine needs to reproduce or compare this run. The
    // quarantine table is read back from the obs registry (diag publishes
    // every quarantined record there), so the manifest and the CLI report
    // are views over the same counters.
    auto write_outputs = [&](const core::pipeline_result* result, std::size_t message_count,
                             const char* status) {
        if (!recorder.has_value()) {
            return;
        }
        const obs::trace_snapshot trace = recorder->rec().trace();
        const obs::metrics_snapshot metrics = recorder->rec().metrics().snapshot();
        if (trace_out != nullptr) {
            write_text_file(trace_out, obs::to_chrome_trace(trace));
        }
        if (metrics_out != nullptr) {
            write_text_file(metrics_out, obs::to_prometheus(metrics));
        }
        if (manifest_out == nullptr) {
            return;
        }
        obs::run_manifest m;
        m.version = util::build_version_string();
        m.command = cmd_name;
        m.options = {
            {"segmenter", segmenter_name},
            {"budget_seconds", std::to_string(budget)},
            {"max_segments", std::to_string(opt.max_segments)},
            {"max_bytes", std::to_string(opt.max_bytes)},
            {"max_memory", std::to_string(opt.max_memory)},
            {"mode", lenient ? "lenient" : "strict"},
            {"threads", std::to_string(opt.threads)},
        };
        m.input_path = path;
        m.input_bytes = raw.size();
        m.input_digest = obs::fnv1a64(raw.data(), raw.size());
        m.threads = util::resolve_threads(opt.threads);
        m.stages = obs::collect_stages(trace);
        m.metrics = metrics;
        if (const auto it = metrics.counters.find("diag.quarantined_total");
            it != metrics.counters.end()) {
            m.quarantined = static_cast<std::uint64_t>(it->second);
        }
        constexpr std::string_view kQuarantinePrefix = "diag.quarantined.";
        for (const auto& [name, value] : metrics.counters) {
            if (name.size() > kQuarantinePrefix.size() &&
                name.compare(0, kQuarantinePrefix.size(), kQuarantinePrefix) == 0) {
                m.quarantine_by_category.emplace_back(name.substr(kQuarantinePrefix.size()),
                                                      static_cast<std::uint64_t>(value));
            }
        }
        m.peak_rss_bytes = obs::peak_rss_bytes();
        m.peak_tracked_bytes = mem::peak_bytes();
        m.elapsed_seconds =
            static_cast<double>(recorder->rec().now_ns()) / 1e9;
        m.messages = message_count;
        m.status = status;
        if (checkpoint_dir != nullptr) {
            m.checkpoint_dir = checkpoint_dir;
            m.restored_stages = restored_stages;
        }
        if (result != nullptr) {
            m.unique_segments = result->unique.size();
            m.clusters = result->final_labels.cluster_count;
            m.noise = result->final_labels.noise_count();
            m.epsilon = result->clustering.config.epsilon;
            m.min_samples = result->clustering.config.min_samples;
            m.elapsed_seconds = result->elapsed_seconds;
        }
        write_text_file(manifest_out, obs::to_json(m));
    };

    if (messages.size() < 3) {
        std::fputs(core::render_quarantine(sink).c_str(), stdout);
        write_outputs(nullptr, messages.size(), "error");
        std::fputs("not enough messages to analyze\n", stderr);
        return 1;
    }

    const auto segmenter = segmentation::make_segmenter(segmenter_name, opt.threads);

    // Resume: adopt every checkpoint snapshot that validates against the
    // current fingerprint; a damaged or mismatched file is quarantined
    // (category checkpoint) and only its stage recomputed. A restored
    // segmentation indexes the messages that survived its quarantine.
    core::pipeline_seed seed;
    ckpt::restored_state restored;
    if (manager.has_value() && resume) {
        restored = manager->load(messages, sink);
        restored_stages = restored.stages;
        seed = std::move(restored.seed);
        if (!restored_stages.empty()) {
            std::string joined;
            for (const std::string& s : restored_stages) {
                joined += joined.empty() ? s : ", " + s;
            }
            std::printf("resumed from %s: restored %s\n", checkpoint_dir, joined.c_str());
        }
    }
    const std::vector<byte_vector>& input =
        seed.segments.has_value() ? restored.messages : messages;

    // One budget bounds the whole job, segmentation through refinement.
    core::pipeline_result result;
    try {
        result = core::analyze_seeded(input, segmenter.get(), std::move(seed), opt, sink);
    } catch (const budget_exceeded_error& e) {
        // A bounded or interrupted run still leaves its trace, metrics and
        // a manifest behind — that is when they matter most. The final
        // checkpoint manifest (status=interrupted) was already written by
        // the manager's on_interrupted hook.
        const bool stopped = dynamic_cast<const interrupted_error*>(&e) != nullptr;
        const bool memory =
            dynamic_cast<const memory_budget_exceeded_error*>(&e) != nullptr;
        const char* status = stopped ? "interrupted"
                                     : (memory ? "memory-exceeded" : "budget-exceeded");
        if (sampler.has_value()) {
            // The rethrow unwinds through the sampler's destructor, which
            // emits the final NDJSON sample carrying this status.
            sampler->set_status(status);
        }
        write_outputs(nullptr, messages.size(), status);
        throw;
    }
    if (manager.has_value()) {
        manager->mark_complete();
    }
    std::printf("%s segmentation -> %zu unique segments -> %zu pseudo data types "
                "(eps %.3f, min_samples %zu, %.1fs)\n",
                segmenter_name.c_str(), result.unique.size(),
                result.final_labels.cluster_count, result.clustering.config.epsilon,
                result.clustering.config.min_samples, result.elapsed_seconds);
    write_outputs(&result, result.surviving.size(), "ok");
    const std::string quarantine = core::render_quarantine(sink);
    if (!quarantine.empty()) {
        std::fputs(quarantine.c_str(), stdout);
    }
    const std::string report = core::render_report(core::summarize_clusters(result));
    if (report_out != nullptr) {
        write_text_file(report_out, report);
    }
    std::fputs("\n", stdout);
    std::fputs(report.c_str(), stdout);

    if (has_flag(argc, argv, "--semantics")) {
        std::vector<byte_vector> segmented;
        for (const std::size_t i : result.surviving) {
            segmented.push_back(input[i]);
        }
        std::printf("\ndeduced semantics:\n%s",
                    core::render_semantics(core::deduce_semantics(segmented, result))
                        .c_str());
    }
    if (sampler.has_value()) {
        sampler->set_status("ok");
    }
    return 0;
}

/// Long-lived clustering daemon: accept captures over local HTTP, run
/// each as a fault-isolated session, journal everything to the spool so
/// kill -9 re-runs the jobs in flight from their journaled payloads. See
/// src/serve/*.hpp for the architecture; this function only parses flags
/// and owns the lifetime order (spool -> sessions -> listener, torn down
/// in reverse).
int cmd_serve(int argc, char** argv) {
    if (!accepts(argc, argv, 0,
                 {"--spool", "--listen", "--sessions", "--queue-depth", "--max-body",
                  "--session-max-memory", "--io-deadline-ms", "--retry-after", "--segmenter",
                  "--budget", "--threads", "--max-memory", "--telemetry-out",
                  "--telemetry-interval-ms"},
                 {"--strict"})) {
        return usage();
    }
    const char* spool_dir = flag_value(argc, argv, "--spool", nullptr);
    if (spool_dir == nullptr) {
        std::fputs("serve requires --spool DIR\n", stderr);
        return usage();
    }
    serve::serve_options opt;
    opt.segmenter = flag_value(argc, argv, "--segmenter", "NEMESYS");
    opt.sessions = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--sessions", "2"), "--sessions"));
    opt.queue_depth = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--queue-depth", "8"), "--queue-depth"));
    // Serving default is lenient (quarantine per job); --strict still wins.
    opt.lenient = !has_flag(argc, argv, "--strict");
    opt.session_budget_seconds =
        util::parse_double(flag_value(argc, argv, "--budget", "120"), "--budget");
    opt.pipeline_threads = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--threads", "1"), "--threads"));
    opt.max_memory = static_cast<std::size_t>(util::parse_size_bytes(
        flag_value(argc, argv, "--max-memory", "0"), "--max-memory"));
    opt.session_max_memory = static_cast<std::size_t>(util::parse_size_bytes(
        flag_value(argc, argv, "--session-max-memory", "0"), "--session-max-memory"));
    opt.retry_after_seconds = static_cast<int>(
        util::parse_u64(flag_value(argc, argv, "--retry-after", "1"), "--retry-after"));

    serve::daemon_options dopt;
    const util::http::listen_address listen = util::http::parse_listen_address(
        flag_value(argc, argv, "--listen", "127.0.0.1:0"), "--listen");
    dopt.host = listen.host;
    dopt.port = listen.port;
    dopt.limits.max_body_bytes = static_cast<std::size_t>(util::parse_size_bytes(
        flag_value(argc, argv, "--max-body", "64M"), "--max-body"));
    dopt.limits.io_deadline_ms = static_cast<int>(util::parse_u64(
        flag_value(argc, argv, "--io-deadline-ms", "5000"), "--io-deadline-ms"));

    install_stop_handlers();
    // The daemon always runs a recorder: /metrics serves its snapshot and
    // every serve.* counter lands in it. No endpoint exports a trace, so it
    // keeps no spans: a span kept per stage of every job would grow the
    // daemon without bound.
    obs::scoped_recorder recorder(obs::spans::drop);
    std::optional<obs::sampler> sampler;
    const char* telemetry_out = flag_value(argc, argv, "--telemetry-out", nullptr);
    if (telemetry_out != nullptr) {
        obs::sampler_options sopt;
        sopt.telemetry_path = telemetry_out;
        const double interval_ms =
            util::parse_double(flag_value(argc, argv, "--telemetry-interval-ms", "500"),
                               "--telemetry-interval-ms");
        sopt.interval =
            std::chrono::milliseconds(interval_ms > 0 ? static_cast<long>(interval_ms) : 500);
        sampler.emplace(&recorder.rec(), std::move(sopt));
        sampler->set_status("error");
    }

    serve::spool journal{std::filesystem::path{spool_dir}};
    serve::session_manager sessions(journal, opt);
    const std::size_t replayed = sessions.recover();
    if (replayed > 0) {
        std::printf("recovered %zu unfinished job%s from %s\n", replayed,
                    replayed == 1 ? "" : "s", spool_dir);
    }
    sessions.start();
    serve::daemon daemon(sessions, &recorder.rec(), dopt);
    std::printf("serving on %s:%u (spool %s, %zu sessions, queue %zu)\n",
                dopt.host.c_str(), daemon.port(), spool_dir, opt.sessions,
                opt.queue_depth);
    std::fflush(stdout);

    while (!interrupt_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fputs("stop requested, draining\n", stderr);
    daemon.stop();
    sessions.stop();
    if (sampler.has_value()) {
        sampler->set_status("interrupted");
    }
    const int sig = interrupt_signal();
    return sig > 0 ? 128 + sig : 0;
}

int cmd_version(int argc, char** argv) {
    if (!accepts(argc, argv, 0, {}, {"--json"})) {
        return usage();
    }
    const bool as_json = has_flag(argc, argv, "--json");
    if (as_json) {
        obs::json_writer w;
        w.begin_object();
        w.key("tool");
        w.value("ftclust");
        w.key("version");
        w.value(util::build_version());
        w.key("git_sha");
        w.value(util::build_git_sha());
        w.key("build_type");
        w.value(util::build_type());
        w.key("kernel_backend");
        w.value(dissim::kernel::kName);
        w.end_object();
        std::printf("%s\n", w.take().c_str());
        return 0;
    }
    std::printf("ftclust %s (%s, %s build)\n", util::build_version(),
                util::build_git_sha(), util::build_type());
    std::printf("kernel backend: %s\n", dissim::kernel::kName);
    return 0;
}

int cmd_corrupt(int argc, char** argv) {
    if (argc < 2 || !accepts(argc, argv, 2, {"--fraction", "--seed"})) {
        return usage();
    }
    testing::corruption_options opt;
    opt.fault_fraction =
        util::parse_double(flag_value(argc, argv, "--fraction", "0.1"), "--fraction");
    opt.seed = util::parse_u64(flag_value(argc, argv, "--seed", "1"), "--seed");
    testing::corruption_log log;
    testing::corrupt_pcap_file(argv[0], argv[1], opt, &log);
    std::printf("injected %zu faults (%zu bit flips, %zu snapped, %zu corrupt lengths) "
                "into %s\n",
                log.faults.size(), log.count(testing::fault_kind::bit_flip),
                log.count(testing::fault_kind::snap),
                log.count(testing::fault_kind::length_garbage), argv[1]);
    return 0;
}

int cmd_generate(int argc, char** argv) {
    if (argc < 3 || !accepts(argc, argv, 3, {"--seed"})) {
        return usage();
    }
    const std::string protocol = argv[0];
    const auto count = static_cast<std::size_t>(util::parse_u64(argv[1], "<messages>"));
    const std::string out_path = argv[2];
    const auto seed = util::parse_u64(flag_value(argc, argv, "--seed", "1"), "--seed");

    const protocols::trace trace = protocols::generate_trace(protocol, count, seed);
    pcap::write_file(out_path, protocols::trace_to_capture(trace));
    std::printf("wrote %zu %s messages (%zu payload bytes) to %s\n", trace.messages.size(),
                protocol.c_str(), trace.total_bytes(), out_path.c_str());
    return 0;
}

int cmd_evaluate(int argc, char** argv) {
    if (argc < 2 || !accepts(argc, argv, 2, {"--segmenter", "--seed", "--threads"})) {
        return usage();
    }
    const std::string protocol = argv[0];
    const auto count = static_cast<std::size_t>(util::parse_u64(argv[1], "<messages>"));
    const std::string segmenter_name = flag_value(argc, argv, "--segmenter", "true");
    const auto seed = util::parse_u64(flag_value(argc, argv, "--seed", "1"), "--seed");

    const protocols::trace truth = protocols::generate_trace(protocol, count, seed);
    const auto messages = segmentation::message_bytes(truth);

    core::pipeline_options opt;
    opt.budget_seconds = 120;
    opt.threads = static_cast<std::size_t>(
        util::parse_u64(flag_value(argc, argv, "--threads", "0"), "--threads"));
    core::pipeline_result result = [&] {
        if (segmenter_name == "true") {
            return core::analyze_segments(messages,
                                          segmentation::segments_from_annotations(truth), opt);
        }
        const auto segmenter = segmentation::make_segmenter(segmenter_name, opt.threads);
        return core::analyze(messages, *segmenter, opt);
    }();

    const core::typed_segments typed = core::assign_types(truth, result.unique);
    const core::clustering_quality q =
        core::evaluate_clustering(result.final_labels, typed, truth.total_bytes());
    std::printf("%s@%zu segmenter=%s: unique=%zu eps=%.3f clusters=%zu noise=%zu\n",
                protocol.c_str(), count, segmenter_name.c_str(), result.unique.size(),
                result.clustering.config.epsilon, result.final_labels.cluster_count,
                result.final_labels.noise_count());
    std::printf("precision=%.2f recall=%.2f F1/4=%.2f coverage=%.0f%%\n", q.precision,
                q.recall, q.f_score, 100 * q.coverage);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    try {
        // Deterministic allocation-fault injection for robustness testing:
        // inert unless FTC_ALLOC_FAIL_NTH / FTC_ALLOC_FAIL_ABOVE_BYTES is set.
        ftc::testing::arm_alloc_faults_from_env();
        // Same contract for socket/spool faults: inert unless
        // FTC_SOCK_FAIL_NTH / FTC_SOCK_FAIL_KIND is set.
        ftc::testing::arm_sock_faults_from_env();
        const std::string cmd = argv[1];
        if (cmd == "analyze" || cmd == "run") {
            return cmd_analyze(cmd.c_str(), argc - 2, argv + 2);
        }
        if (cmd == "serve") {
            return cmd_serve(argc - 2, argv + 2);
        }
        if (cmd == "generate") {
            return cmd_generate(argc - 2, argv + 2);
        }
        if (cmd == "corrupt") {
            return cmd_corrupt(argc - 2, argv + 2);
        }
        if (cmd == "evaluate") {
            return cmd_evaluate(argc - 2, argv + 2);
        }
        if (cmd == "version" || cmd == "--version") {
            return cmd_version(argc - 2, argv + 2);
        }
        return usage();
    } catch (const ftc::interrupted_error& e) {
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        if (!e.partial_report().empty()) {
            std::fprintf(stderr, "partial progress: %s\n", e.partial_report().c_str());
        }
        // Conventional 128+signo, so scripts can tell SIGINT from SIGTERM;
        // programmatic stop requests (no signal) share the budget exit code.
        const int sig = ftc::interrupt_signal();
        return sig > 0 ? 128 + sig : 3;
    } catch (const ftc::budget_exceeded_error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        if (!e.partial_report().empty()) {
            std::fprintf(stderr, "partial progress: %s\n", e.partial_report().c_str());
        }
        return 3;
    } catch (const ftc::error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
