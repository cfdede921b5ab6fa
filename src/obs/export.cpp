#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>

namespace ftc::obs {

namespace {

/// Shortest round-trippable representation; JSON has no Inf/NaN, clamp to 0.
std::string format_double(double v) {
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string format_hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// "dissim.matrix" -> "ftc_dissim_matrix" (Prometheus name charset).
std::string prometheus_name(std::string_view name) {
    std::string out = "ftc_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

}  // namespace

void json_writer::separator() {
    if (!first_.empty()) {
        if (!first_.back()) {
            out_.push_back(',');
        }
        first_.back() = false;
    }
}

void json_writer::raw(std::string_view text) {
    out_.append(text);
}

void json_writer::begin_object() {
    separator();
    raw("{");
    first_.push_back(true);
}

void json_writer::end_object() {
    first_.pop_back();
    raw("}");
}

void json_writer::begin_array() {
    separator();
    raw("[");
    first_.push_back(true);
}

void json_writer::end_array() {
    first_.pop_back();
    raw("]");
}

void json_writer::key(std::string_view k) {
    separator();
    out_.push_back('"');
    json_escape(out_, k);
    raw("\":");
    // The upcoming value must not emit another comma for this slot.
    if (!first_.empty()) {
        first_.back() = true;
    }
}

void json_writer::value(std::string_view v) {
    separator();
    out_.push_back('"');
    json_escape(out_, v);
    out_.push_back('"');
}

void json_writer::value(double v) {
    separator();
    raw(format_double(v));
}

void json_writer::value(std::uint64_t v) {
    separator();
    raw(std::to_string(v));
}

void json_writer::value(std::int64_t v) {
    separator();
    raw(std::to_string(v));
}

void json_writer::value(bool v) {
    separator();
    raw(v ? "true" : "false");
}

void json_writer::null() {
    separator();
    raw("null");
}

std::string json_writer::take() {
    return std::move(out_);
}

void json_escape(std::string& out, std::string_view text) {
    for (char c : text) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
}

std::string to_chrome_trace(const trace_snapshot& trace) {
    json_writer w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    std::uint32_t max_tid = 0;
    for (const span_record& s : trace.spans) {
        max_tid = std::max(max_tid, s.tid);
        w.begin_object();
        w.key("name");
        w.value(std::string_view{s.name});
        w.key("cat");
        w.value("ftc");
        w.key("ph");
        w.value("X");
        w.key("pid");
        w.value(std::uint64_t{1});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(s.tid));
        w.key("ts");
        w.value(static_cast<double>(s.start_ns) / 1000.0);  // microseconds
        w.key("dur");
        w.value(static_cast<double>(s.wall_ns) / 1000.0);
        w.key("args");
        w.begin_object();
        w.key("cpu_us");
        w.value(static_cast<double>(s.cpu_ns) / 1000.0);
        for (const span_arg& arg : s.args) {
            w.key(arg.key);
            w.value(arg.value);
        }
        w.end_object();
        w.end_object();
    }
    // Thread naming metadata so the Chrome UI labels the lanes.
    for (std::uint32_t tid = 0; !trace.spans.empty() && tid <= max_tid; ++tid) {
        w.begin_object();
        w.key("name");
        w.value("thread_name");
        w.key("ph");
        w.value("M");
        w.key("pid");
        w.value(std::uint64_t{1});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(tid));
        w.key("args");
        w.begin_object();
        w.key("name");
        w.value(tid == 0 ? std::string{"main"} : "worker-" + std::to_string(tid));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit");
    w.value("ms");
    w.end_object();
    return w.take();
}

namespace {

/// Registered help strings, keyed by the dotted ftc metric name. Guarded by
/// its own mutex (registrations are rare; exports take one lock per metric).
struct help_registry {
    std::mutex mutex;
    std::map<std::string, std::string, std::less<>> entries;
};

help_registry& helps() {
    static help_registry reg;
    static const bool seeded = [] {
        // Built-in inventory: every metric the pipeline emits today. Kept
        // here (not at the emit sites) so the exposition is complete even
        // for metrics whose code path did not run this process.
        const std::pair<const char*, const char*> seed[] = {
            {"budget.segments", "Segments charged against the resource budget"},
            {"budget.bytes", "Bytes charged against the resource budget"},
            {"budget.exceeded_total", "Runs aborted by the resource budget"},
            {"budget.interrupted_total", "Runs aborted by SIGINT/SIGTERM"},
            {"ckpt.bytes_written_total", "Bytes written into checkpoint files"},
            {"ckpt.files_written_total", "Checkpoint section files written"},
            {"ckpt.interrupted_total", "Checkpoint saves cut short by an interrupt"},
            {"ckpt.sections_rejected_total", "Checkpoint sections rejected as stale or corrupt"},
            {"ckpt.snapshots_skipped_total", "Checkpoint snapshots not written for the memory budget"},
            {"ckpt.stages_restored_total", "Pipeline stages restored from a checkpoint"},
            {"cluster.dbscan_runs_total", "DBSCAN executions including epsilon re-runs"},
            {"cluster.knn_reused_total", "Auto-configurations served from an extracted k-NN batch"},
            {"cluster.reconfigurations_total", "Auto-reconfigurations of DBSCAN parameters"},
            {"cluster.refine_merges_total", "Cluster merges during refinement"},
            {"cluster.refine_splits_total", "Cluster splits during refinement"},
            {"diag.diagnostics_total", "Ingestion diagnostics recorded"},
            {"diag.quarantined_total", "Input records quarantined instead of analyzed"},
            {"diag.quarantined", "Quarantined records by category"},
            {"dissim.kernel.invocations_total", "Sliding-Canberra kernel invocations"},
            {"dissim.kernel.equal_fast_path_total", "Kernel calls served by the equal-length fast path"},
            {"dissim.kernel.windows_total", "Candidate alignment windows considered"},
            {"dissim.kernel.windows_pruned_total", "Alignment windows skipped by pruning"},
            {"dissim.matrix.cells_scanned_total", "Matrix cells compared by DBSCAN range preparation row scans"},
            {"dissim.matrix.bits_retested_total", "Neighbor bits re-tested when DBSCAN's epsilon shrank"},
            {"dissim.matrix.prepare_skipped_total", "Matrix range preparations skipped for the memory budget"},
            {"dissim.sparse.builds_total", "Sparse epsilon-neighborhood builds"},
            {"dissim.sparse.pairs_scored_total", "Segment pairs scored by sparse list builds and range scans"},
            {"dissim.sparse.pairs_skipped_total", "Segment pairs skipped by the length lower bound"},
            {"dissim.sparse.buckets_pruned_total", "Length buckets pruned wholesale by the bound"},
            {"dissim.sparse.range_rescans_total", "Points scanned by DBSCAN range preparation"},
            {"dissim.sparse.cache_hits_total", "Sparse range queries served without a scan"},
            {"dissim.sparse.ondemand_pairs_total", "Pair dissimilarities scored by row queries"},
            {"mem.tracked_bytes", "Live bytes on the ftc::mem tracked heap"},
            {"mem.tracked_bytes_peak", "High-water mark of the tracked heap"},
            {"mem.tracked_allocs_total", "Allocations routed through the tracked heap"},
            {"mem.budget_exceeded_total", "Runs aborted by the memory budget"},
            {"mem.dedup_condensations_total", "Segment stores condensed under memory pressure"},
            {"mem.degrade.dedup_total", "Dedup degradation-ladder rungs engaged"},
            {"mem.degrade.sparse_total", "Sparse-engine rungs engaged because the dense matrix would not fit"},
            {"mem.faults_injected_total", "Allocation faults injected by the test harness"},
            {"net.io_faults_injected_total", "Socket/spool I/O faults injected by the test harness"},
            {"pcap.datagrams_total", "Datagrams decapsulated from the input capture"},
            {"pipeline.unique_segments", "Unique segment values entering dissimilarity"},
            {"serve.requests_total", "HTTP requests answered by the serve daemon"},
            {"serve.http_errors_total", "Requests rejected as malformed, oversized or stalled"},
            {"serve.jobs_submitted_total", "Analysis jobs accepted into the spool"},
            {"serve.jobs_completed_total", "Sessions that finished with a report"},
            {"serve.jobs_failed_total", "Sessions that ended in a typed per-session error"},
            {"serve.jobs_shed_total", "Job submissions refused with 503 under overload"},
            {"serve.jobs_recovered_total", "Spooled jobs replayed after a restart"},
            {"serve.sessions_degraded_total", "Sessions started under the degradation ladder"},
            {"serve.queue_depth", "Jobs waiting in the admission queue"},
            {"serve.active_sessions", "Sessions currently running"},
            {"telemetry.write_errors", "Telemetry NDJSON lines the output stream refused"},
            {"threadpool.block_seconds", "Seconds each parallel_for block took to run"},
            {"threadpool.busy_seconds", "Seconds parallel_for lanes spent running blocks"},
            {"threadpool.jobs_total", "parallel_for fan-outs over a non-empty range"},
            {"threadpool.queue_depth", "Block count of the latest multi-lane parallel_for fan-out"},
        };
        for (const auto& [name, help] : seed) {
            reg.entries.emplace(name, help);
        }
        return true;
    }();
    (void)seeded;
    return reg;
}

/// Prometheus HELP payload escaping (text exposition format v0.0.4).
std::string prometheus_help_escape(std::string_view help) {
    std::string out;
    for (char c : help) {
        if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void append_help(std::string& out, const std::string& name, const std::string& p) {
    const std::string help = metric_help(name);
    if (!help.empty()) {
        out += "# HELP " + p + " " + prometheus_help_escape(help) + "\n";
    }
}

}  // namespace

void register_metric_help(std::string_view name, std::string_view help) {
    help_registry& reg = helps();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.entries.insert_or_assign(std::string{name}, std::string{help});
}

std::string metric_help(std::string_view name) {
    help_registry& reg = helps();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (const auto it = reg.entries.find(name); it != reg.entries.end()) {
        return it->second;
    }
    // Longest registered dotted prefix: "diag.quarantined" answers for
    // "diag.quarantined.truncated" and any future per-category split.
    std::string_view prefix = name;
    while (true) {
        const std::size_t dot = prefix.rfind('.');
        if (dot == std::string_view::npos) {
            return {};
        }
        prefix = prefix.substr(0, dot);
        if (const auto it = reg.entries.find(prefix); it != reg.entries.end()) {
            return it->second;
        }
    }
}

std::string to_prometheus(const metrics_snapshot& metrics) {
    std::string out;
    for (const auto& [name, value] : metrics.counters) {
        const std::string p = prometheus_name(name);
        append_help(out, name, p);
        out += "# TYPE " + p + " counter\n";
        out += p + " " + format_double(value) + "\n";
    }
    for (const auto& [name, value] : metrics.gauges) {
        const std::string p = prometheus_name(name);
        append_help(out, name, p);
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + format_double(value) + "\n";
    }
    for (const auto& [name, hist] : metrics.histograms) {
        const std::string p = prometheus_name(name);
        append_help(out, name, p);
        out += "# TYPE " + p + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < kHistogramBucketCount; ++b) {
            cumulative += hist.buckets[b];
            const std::string le =
                b < kHistogramBounds.size() ? format_double(kHistogramBounds[b]) : "+Inf";
            out += p + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
        }
        out += p + "_sum " + format_double(hist.sum) + "\n";
        out += p + "_count " + std::to_string(hist.count) + "\n";
    }
    return out;
}

std::vector<manifest_stage> collect_stages(const trace_snapshot& trace) {
    std::vector<manifest_stage> out;
    for (const span_record& s : trace.spans) {
        if (s.tid != 0 || s.depth != 0) {
            continue;  // sub-stages and worker activity are not stages
        }
        manifest_stage stage;
        stage.name = s.name;
        stage.wall_seconds = static_cast<double>(s.wall_ns) / 1e9;
        stage.cpu_seconds = static_cast<double>(s.cpu_ns) / 1e9;
        stage.counts = s.args;
        out.push_back(std::move(stage));
    }
    return out;
}

std::string to_json(const run_manifest& m) {
    json_writer w;
    w.begin_object();
    w.key("tool");
    w.value(std::string_view{m.tool});
    w.key("version");
    w.value(std::string_view{m.version});
    w.key("command");
    w.value(std::string_view{m.command});
    w.key("status");
    w.value(std::string_view{m.status});

    w.key("options");
    w.begin_object();
    for (const auto& [flag, value] : m.options) {
        w.key(flag);
        w.value(std::string_view{value});
    }
    w.end_object();

    w.key("input");
    w.begin_object();
    w.key("path");
    w.value(std::string_view{m.input_path});
    w.key("bytes");
    w.value(m.input_bytes);
    w.key("digest_fnv1a64");
    w.value(std::string_view{format_hex64(m.input_digest)});
    w.end_object();

    w.key("seed");
    if (m.has_seed) {
        w.value(m.seed);
    } else {
        w.null();
    }
    w.key("threads");
    w.value(static_cast<std::uint64_t>(m.threads));

    w.key("checkpoint");
    if (m.checkpoint_dir.empty()) {
        w.null();
    } else {
        w.begin_object();
        w.key("dir");
        w.value(std::string_view{m.checkpoint_dir});
        w.key("restored_stages");
        w.begin_array();
        for (const std::string& stage : m.restored_stages) {
            w.value(std::string_view{stage});
        }
        w.end_array();
        w.end_object();
    }

    w.key("stages");
    w.begin_array();
    for (const manifest_stage& stage : m.stages) {
        w.begin_object();
        w.key("name");
        w.value(std::string_view{stage.name});
        w.key("wall_seconds");
        w.value(stage.wall_seconds);
        w.key("cpu_seconds");
        w.value(stage.cpu_seconds);
        w.key("counts");
        w.begin_object();
        for (const span_arg& arg : stage.counts) {
            w.key(arg.key);
            w.value(arg.value);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();

    w.key("quarantine");
    w.begin_object();
    w.key("total");
    w.value(m.quarantined);
    w.key("by_category");
    w.begin_object();
    for (const auto& [category, count] : m.quarantine_by_category) {
        w.key(category);
        w.value(count);
    }
    w.end_object();
    w.end_object();

    w.key("resources");
    w.begin_object();
    w.key("peak_rss_bytes");
    w.value(m.peak_rss_bytes);
    w.key("peak_tracked_bytes");
    w.value(m.peak_tracked_bytes);
    w.key("elapsed_seconds");
    w.value(m.elapsed_seconds);
    w.end_object();

    w.key("result");
    w.begin_object();
    w.key("messages");
    w.value(static_cast<std::uint64_t>(m.messages));
    w.key("unique_segments");
    w.value(static_cast<std::uint64_t>(m.unique_segments));
    w.key("clusters");
    w.value(static_cast<std::uint64_t>(m.clusters));
    w.key("noise");
    w.value(static_cast<std::uint64_t>(m.noise));
    w.key("epsilon");
    w.value(m.epsilon);
    w.key("min_samples");
    w.value(static_cast<std::uint64_t>(m.min_samples));
    w.end_object();

    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : m.metrics.counters) {
        w.key(name);
        w.value(value);
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : m.metrics.gauges) {
        w.key(name);
        w.value(value);
    }
    w.end_object();

    w.end_object();
    return w.take();
}

std::uint64_t fnv1a64(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

}  // namespace ftc::obs
