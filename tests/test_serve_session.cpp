// Fault-isolated session execution: accepted jobs produce reports
// byte-identical to the batch pipeline, failures are typed and per-job,
// admission control sheds politely, recovery replays journaled jobs to the
// same bytes, and a warm daemon's recorder and heap stay flat.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "pcap/decap.hpp"
#include "pcap/pcap.hpp"
#include "segmentation/segment.hpp"
#include "serve/session.hpp"
#include "serve_test_util.hpp"
#include "testing/temp_path.hpp"
#include "util/interrupt.hpp"
#include "util/stopwatch.hpp"

namespace ftc::serve {
namespace {

namespace fs = std::filesystem;

// Bytes of heap in use in every glibc arena. ASan and TSan replace that
// allocator, so under them (or another libc) there is nothing to read.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kGlibcHeap = true;
double heap_in_use() { return static_cast<double>(mallinfo2().uordblks); }
#else
constexpr bool kGlibcHeap = false;
double heap_in_use() { return 0.0; }
#endif

fs::path fresh_dir(const char* name) {
    const fs::path dir = testing::temp_path(name);
    fs::remove_all(dir);
    return dir;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The batch run of the same capture bytes under the session options.
core::pipeline_result batch_run(const byte_vector& raw, const serve_options& options) {
    diag::error_sink sink(diag::policy::lenient);
    const pcap::capture cap = pcap::from_pcap_bytes(raw, sink);
    std::vector<byte_vector> messages;
    for (pcap::datagram& d : pcap::extract_datagrams(cap, {}, sink)) {
        messages.push_back(std::move(d.payload));
    }
    const auto segmenter = segmentation::make_segmenter(options.segmenter);
    const deadline dl(options.session_budget_seconds);
    segmentation::lenient_segmentation segmented =
        segmentation::segment_lenient(*segmenter, messages, dl, sink);
    core::pipeline_options opt;
    opt.budget_seconds = options.session_budget_seconds;
    opt.threads = options.pipeline_threads;
    core::pipeline_seed seed;
    seed.segments = std::move(segmented.segments);
    return core::analyze_seeded(segmented.messages, nullptr, std::move(seed), opt);
}

/// What `ftclust analyze --report-out` writes for the same capture bytes
/// and session options — the reference the daemon must hit byte for byte.
std::string batch_report(const byte_vector& raw, const serve_options& options) {
    return core::render_report(core::summarize_clusters(batch_run(raw, options)));
}

serve_options small_options() {
    serve_options options;
    options.sessions = 2;
    options.pipeline_threads = 1;
    options.session_budget_seconds = 60;
    return options;
}

TEST(ServeSession, CompletedJobMatchesBatchReportByteForByte) {
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    spool journal(fresh_dir("ftc_serve_session_batch"));
    session_manager sessions(journal, small_options());
    sessions.start();

    const admission verdict = sessions.submit(byte_view{raw.data(), raw.size()});
    ASSERT_TRUE(verdict.accepted) << verdict.reason;
    sessions.drain();

    const std::optional<job_status> status = sessions.status(verdict.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, job_state::done);
    EXPECT_EQ(slurp(journal.report_file(verdict.id)), batch_report(raw, small_options()));

    // The journal is the whole durable state of a job: no stage
    // checkpoints, no torn temporaries.
    std::set<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(journal.dir())) {
        files.insert(entry.path().filename().string());
    }
    EXPECT_EQ(files, (std::set<std::string>{"job-1.json", "job-1.pcap", "job-1.report"}));
}

TEST(ServeSession, MalformedPayloadIsTypedPerJobFailure) {
    spool journal(fresh_dir("ftc_serve_session_bad"));
    session_manager sessions(journal, small_options());
    sessions.start();

    const byte_vector garbage(64, std::uint8_t{0xAB});
    const admission verdict = sessions.submit(byte_view{garbage.data(), garbage.size()});
    ASSERT_TRUE(verdict.accepted);
    sessions.drain();

    const std::optional<job_status> status = sessions.status(verdict.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, job_state::failed);
    EXPECT_FALSE(status->error.empty());

    // The failure is journaled, and the pool keeps serving: a good job
    // after a bad one completes normally.
    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = journal.scan(sink);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].phase, job_phase::failed);

    const byte_vector good = serve_test::make_capture_bytes("NTP", 30, 2);
    const admission second = sessions.submit(byte_view{good.data(), good.size()});
    ASSERT_TRUE(second.accepted);
    sessions.drain();
    EXPECT_EQ(sessions.status(second.id)->state, job_state::done);
}

TEST(ServeSession, SubmitBeforeStartIsShed) {
    spool journal(fresh_dir("ftc_serve_session_unstarted"));
    session_manager sessions(journal, small_options());
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 10, 1);
    const admission verdict = sessions.submit(byte_view{raw.data(), raw.size()});
    EXPECT_FALSE(verdict.accepted);
    EXPECT_EQ(verdict.reason, "stopping");
    // Nothing was journaled for a shed submission.
    diag::error_sink sink(diag::policy::lenient);
    EXPECT_TRUE(journal.scan(sink).empty());
}

TEST(ServeSession, MemoryProjectionShedsBeforeAccepting) {
    spool journal(fresh_dir("ftc_serve_session_memshed"));
    serve_options options = small_options();
    options.max_memory = 1024;  // tiny ceiling: any real capture projects past it
    session_manager sessions(journal, options);
    sessions.start();
    const byte_vector raw = serve_test::make_capture_bytes("DNS", 40, 9);
    const admission verdict = sessions.submit(byte_view{raw.data(), raw.size()});
    EXPECT_FALSE(verdict.accepted);
    EXPECT_EQ(verdict.reason, "memory-pressure");
}

TEST(ServeSession, RecoverReplaysJournaledJobsToIdenticalReports) {
    const fs::path dir = fresh_dir("ftc_serve_session_recover");
    const byte_vector raw = serve_test::make_capture_bytes("DNS", 50, 7);
    // Journal a job as a crashed daemon would have: accepted, never run.
    {
        spool journal(dir);
        (void)journal.append(byte_view{raw.data(), raw.size()});
    }
    spool journal(dir);
    session_manager sessions(journal, small_options());
    EXPECT_EQ(sessions.recover(), 1u);
    sessions.start();
    sessions.drain();

    const std::optional<job_status> status = sessions.status(1);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, job_state::done);
    EXPECT_TRUE(status->recovered);
    EXPECT_EQ(slurp(journal.report_file(1)), batch_report(raw, small_options()));
}

TEST(ServeSession, InterruptedSessionReplaysFromTheJournalAlone) {
    const fs::path dir = fresh_dir("ftc_serve_session_interrupted");
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    {
        const scoped_interrupt_clear guard;
        request_interrupt();
        spool journal(dir);
        session_manager sessions(journal, small_options());
        sessions.start();
        const admission verdict = sessions.submit(byte_view{raw.data(), raw.size()});
        ASSERT_TRUE(verdict.accepted) << verdict.reason;
        sessions.drain();

        // The stop request unwinds the session at its first cancellation
        // point; the job is not failed, only left for the next start.
        const std::optional<job_status> status = sessions.status(verdict.id);
        ASSERT_TRUE(status.has_value());
        EXPECT_EQ(status->state, job_state::queued);
        diag::error_sink sink(diag::policy::lenient);
        const std::vector<spool_entry> entries = journal.scan(sink);
        ASSERT_EQ(entries.size(), 1u);
        EXPECT_EQ(entries[0].phase, job_phase::accepted);
    }  // the guard clears the stop request

    spool journal(dir);
    session_manager sessions(journal, small_options());
    EXPECT_EQ(sessions.recover(), 1u);
    sessions.start();
    sessions.drain();

    const std::optional<job_status> status = sessions.status(1);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, job_state::done);
    EXPECT_TRUE(status->recovered);
    EXPECT_EQ(slurp(journal.report_file(1)), batch_report(raw, small_options()));
}

TEST(ServeSession, RestartAdoptsTheSpoolScanAndCountsEachQuarantineOnce) {
    const fs::path dir = fresh_dir("ftc_serve_session_damaged");
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    {
        spool seeded(dir);
        for (int i = 0; i < 3; ++i) {
            (void)seeded.append(byte_view{raw.data(), raw.size()});
        }
        // Job 2's metadata is damaged, job 3's payload rots on disk.
        std::ofstream meta(seeded.meta_file(2), std::ios::binary | std::ios::trunc);
        meta << "{\"schema\":";
        std::fstream payload(seeded.payload_file(3),
                             std::ios::binary | std::ios::in | std::ios::out);
        char byte = 0;
        payload.seekg(40);
        payload.get(byte);
        payload.seekp(40);
        payload.put(static_cast<char>(byte ^ 0x40));
    }
    const obs::scoped_recorder recorder;
    spool journal(dir);
    session_manager sessions(journal, small_options());
    EXPECT_EQ(sessions.recover(), 1u);
    sessions.start();
    sessions.drain();

    // Each damaged file is quarantined once, by the spool's one scan.
    const obs::metrics_snapshot metrics = recorder.rec().metrics().snapshot();
    EXPECT_EQ(metrics.counters.at("diag.quarantined_total"), 2.0);
    EXPECT_FALSE(sessions.status(2).has_value());
    const std::optional<job_status> rotted = sessions.status(3);
    ASSERT_TRUE(rotted.has_value());
    EXPECT_EQ(rotted->state, job_state::failed);
    EXPECT_NE(rotted->error.find("digest"), std::string::npos) << rotted->error;
    const std::optional<job_status> good = sessions.status(1);
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->state, job_state::done);
    EXPECT_EQ(slurp(journal.report_file(1)), batch_report(raw, small_options()));
}

TEST(ServeSession, BudgetTripNamesTheStageReached) {
    spool journal(fresh_dir("ftc_serve_session_budget"));
    serve_options options = small_options();
    options.session_budget_seconds = 1e-6;
    session_manager sessions(journal, options);
    sessions.start();
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    const admission verdict = sessions.submit(byte_view{raw.data(), raw.size()});
    ASSERT_TRUE(verdict.accepted) << verdict.reason;
    sessions.drain();

    // The job fails like `ftclust run` does: the error, then where it got.
    const std::optional<job_status> status = sessions.status(verdict.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, job_state::failed);
    EXPECT_NE(status->error.find("reached stage"), std::string::npos) << status->error;
    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = journal.scan(sink);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].error, status->error);
}

TEST(ServeSession, PressureDegradesSessionsResultNeutrally) {
    const fs::path dir = fresh_dir("ftc_serve_session_degrade");
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    // Journal two jobs before the manager exists: with one worker and a
    // depth-2 queue, the first session starts while the second still
    // queues — a deterministic half-full pressure window.
    {
        spool seeded(dir);
        (void)seeded.append(byte_view{raw.data(), raw.size()});
        (void)seeded.append(byte_view{raw.data(), raw.size()});
    }
    // A session cap that holds the whole unpressured run, matrix included,
    // but whose degraded half cannot hold the matrix.
    std::string reference;
    std::uint64_t dense_bytes = 0;
    std::uint64_t batch_peak = 0;
    {
        mem::reset_peak();
        const core::pipeline_result batch = batch_run(raw, small_options());
        batch_peak = mem::peak_bytes();
        const std::uint64_t n = batch.unique.size();
        dense_bytes = n * n * sizeof(float);
        reference = core::render_report(core::summarize_clusters(batch));
    }
    spool journal(dir);
    serve_options options = small_options();
    options.sessions = 1;
    options.queue_depth = 2;
    options.session_max_memory = static_cast<std::size_t>(2 * dense_bytes);
    ASSERT_GE(options.session_max_memory, batch_peak);
    const obs::scoped_recorder recorder;
    session_manager sessions(journal, options);
    EXPECT_EQ(sessions.recover(), 2u);
    EXPECT_EQ(sessions.pressure_level(), 1);
    sessions.start();
    sessions.drain();

    const std::optional<job_status> first = sessions.status(1);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->state, job_state::done);
    EXPECT_TRUE(first->degraded);
    const std::optional<job_status> second = sessions.status(2);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->state, job_state::done);
    EXPECT_FALSE(second->degraded);
    // Only the degraded job's halved cap pushed the pipeline onto the
    // sparse engine; the other built the matrix.
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    EXPECT_EQ(m.counters.at("dissim.sparse.builds_total"), 1.0);
    // Degradation is result-neutral: both reports still match the
    // unpressured batch reference.
    EXPECT_EQ(slurp(journal.report_file(1)), reference);
    EXPECT_EQ(slurp(journal.report_file(2)), reference);
}

TEST(ServeSession, StopLeavesQueuedJobsJournaledForReplay) {
    spool journal(fresh_dir("ftc_serve_session_stopqueue"));
    serve_options options = small_options();
    options.sessions = 1;
    options.queue_depth = 8;
    session_manager sessions(journal, options);
    sessions.start();
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 30, 3);
    const admission a = sessions.submit(byte_view{raw.data(), raw.size()});
    const admission b = sessions.submit(byte_view{raw.data(), raw.size()});
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    sessions.stop();

    // Whatever did not finish is still journaled `accepted`; nothing is
    // lost between stop and the next start.
    diag::error_sink sink(diag::policy::lenient);
    std::size_t unfinished = 0;
    for (const spool_entry& entry : journal.scan(sink)) {
        EXPECT_NE(entry.phase, job_phase::failed);
        unfinished += entry.phase == job_phase::accepted ? 1 : 0;
    }
    spool reopened(journal.dir());
    session_manager second(reopened, options);
    EXPECT_EQ(second.recover(), unfinished);
    second.start();
    second.drain();
    EXPECT_EQ(second.status(a.id)->state, job_state::done);
    EXPECT_EQ(second.status(b.id)->state, job_state::done);
}

TEST(ServeSession, WarmDaemonKeepsNoSpansAndAFlatHeap) {
    // A short soak under the recorder `ftclust serve` installs: jobs whose
    // pipeline fans out on two lanes, two sessions at a time. Once warm,
    // the recorder holds no spans and the heap grows by the job tables
    // alone (each job's status and spool entry), well under 1 KB a job.
    const obs::scoped_recorder recorder(obs::spans::drop);
    spool journal(fresh_dir("ftc_serve_session_soak"));
    serve_options options = small_options();
    options.pipeline_threads = 2;
    session_manager sessions(journal, options);
    sessions.start();
    const byte_vector raw = serve_test::make_capture_bytes("NTP", 40, 5);
    const auto run_jobs = [&](std::size_t jobs) {
        for (std::size_t i = 0; i < jobs; i += options.sessions) {
            for (std::size_t s = 0; s < options.sessions; ++s) {
                ASSERT_TRUE(sessions.submit(byte_view{raw.data(), raw.size()}).accepted);
            }
            sessions.drain();
        }
    };
    constexpr std::size_t kWarmup = 50;
    constexpr std::size_t kMeasured = 200;
    run_jobs(kWarmup);
    EXPECT_TRUE(recorder.rec().trace().spans.empty());
    const double heap_before = heap_in_use();
    run_jobs(kMeasured);
    const double heap_after = heap_in_use();

    EXPECT_TRUE(recorder.rec().trace().spans.empty());
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    EXPECT_EQ(m.counters.at("serve.jobs_completed_total"),
              static_cast<double>(kWarmup + kMeasured));
    // The gauge is set only by a fan-out that ran on more than one lane.
    EXPECT_EQ(m.gauges.count("threadpool.queue_depth"), 1u);
    if (kGlibcHeap) {
        EXPECT_LT((heap_after - heap_before) / kMeasured, 1024.0)
            << "heap grew from " << heap_before << " to " << heap_after << " bytes";
    }
}

}  // namespace
}  // namespace ftc::serve
