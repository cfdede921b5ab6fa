// The crash-durable job journal: append/transition round-trips, id
// continuation across reopen, and quarantine of damaged metadata or
// payloads — one corrupt spool file fails one job, never the scan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "obs/obs.hpp"
#include "serve/spool.hpp"
#include "testing/temp_path.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace ftc::serve {
namespace {

namespace fs = std::filesystem;

byte_vector bytes(std::string_view text) {
    return byte_vector(text.begin(), text.end());
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

fs::path fresh_dir(const char* name) {
    const fs::path dir = testing::temp_path(name);
    fs::remove_all(dir);
    return dir;
}

TEST(ServeSpool, AppendJournalsPayloadAndMetadata) {
    const fs::path dir = fresh_dir("ftc_serve_spool_append");
    spool journal(dir);
    const std::uint64_t id = journal.append(bytes("capture-bytes"));
    EXPECT_EQ(id, 1u);
    EXPECT_TRUE(fs::exists(journal.payload_file(id)));
    EXPECT_TRUE(fs::exists(journal.meta_file(id)));

    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = journal.scan(sink);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].id, 1u);
    EXPECT_EQ(entries[0].phase, job_phase::accepted);
    EXPECT_EQ(entries[0].payload_bytes, 13u);
    const byte_vector back = journal.read_payload(id, entries[0].payload_digest);
    EXPECT_EQ(back, bytes("capture-bytes"));
}

TEST(ServeSpool, TransitionsPersistAcrossReopen) {
    const fs::path dir = fresh_dir("ftc_serve_spool_reopen");
    {
        spool journal(dir);
        (void)journal.append(bytes("one"));
        (void)journal.append(bytes("two"));
        (void)journal.append(bytes("three"));
        journal.mark_done(1);
        journal.mark_failed(2, "synthetic failure");
    }
    spool reopened(dir);
    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = reopened.scan(sink);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].phase, job_phase::done);
    EXPECT_EQ(entries[1].phase, job_phase::failed);
    EXPECT_EQ(entries[1].error, "synthetic failure");
    EXPECT_EQ(entries[2].phase, job_phase::accepted);
    // Replayed transitions work on adopted entries too.
    reopened.mark_done(3);
    // Ids continue after the highest journaled one.
    EXPECT_EQ(reopened.append(bytes("four")), 4u);
}

TEST(ServeSpool, DamagedMetadataIsQuarantinedPerJob) {
    const fs::path dir = fresh_dir("ftc_serve_spool_badmeta");
    {
        spool journal(dir);
        (void)journal.append(bytes("kept"));
        (void)journal.append(bytes("damaged"));
    }
    {
        std::ofstream out(dir / "job-2.json", std::ios::trunc);
        out << "{ not json";
    }
    spool journal(dir);
    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = journal.scan(sink);
    ASSERT_EQ(entries.size(), 1u);  // job 2 quarantined, job 1 intact
    EXPECT_EQ(entries[0].id, 1u);
    EXPECT_EQ(sink.count(diag::category::spool), 1u);

    // Strict policy turns the same damage into a throw.
    diag::error_sink strict(diag::policy::strict);
    EXPECT_THROW((void)journal.scan(strict), ftc::error);
}

TEST(ServeSpool, PayloadDigestMismatchDowngradesToFailed) {
    const fs::path dir = fresh_dir("ftc_serve_spool_rot");
    // The payload rots under an open spool: a reopen would journal the
    // downgrade itself (PayloadDowngradeIsJournaledOnce).
    spool journal(dir);
    const std::uint64_t id = journal.append(bytes("pristine payload"));
    {
        std::fstream f(dir / "job-1.pcap", std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(0);
        f.put('X');  // bit rot
    }
    diag::error_sink sink(diag::policy::lenient);
    const std::vector<spool_entry> entries = journal.scan(sink);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].phase, job_phase::failed);
    EXPECT_NE(entries[0].error.find("digest"), std::string::npos);
    EXPECT_EQ(sink.count(diag::category::spool), 1u);
    EXPECT_THROW((void)journal.read_payload(id, entries[0].payload_digest),
                 ftc::parse_error);
}

TEST(ServeSpool, PayloadDowngradeIsJournaledOnce) {
    const fs::path dir = fresh_dir("ftc_serve_spool_rot_journaled");
    {
        spool journal(dir);
        (void)journal.append(bytes("pristine payload"));
    }
    {
        std::fstream f(dir / "job-1.pcap", std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(3);
        f.put('X');  // bit rot
    }
    const obs::scoped_recorder recorder;
    {
        const spool first(dir);
        ASSERT_EQ(first.entries().size(), 1u);
        EXPECT_EQ(first.entries()[0].phase, job_phase::failed);
    }
    // The first open wrote the downgrade; the second adopts it as is.
    const std::string meta = slurp(dir / "job-1.json");
    EXPECT_NE(meta.find("\"state\":\"failed\""), std::string::npos) << meta;
    EXPECT_NE(meta.find("digest mismatch"), std::string::npos) << meta;
    const spool second(dir);
    ASSERT_EQ(second.entries().size(), 1u);
    EXPECT_EQ(second.entries()[0].phase, job_phase::failed);
    EXPECT_NE(second.entries()[0].error.find("digest"), std::string::npos);
    const obs::metrics_snapshot metrics = recorder.rec().metrics().snapshot();
    EXPECT_EQ(metrics.counters.at("diag.quarantined_total"), 1.0);
}

TEST(ServeSpool, IdsNeverReuseTheFilesOfADamagedJob) {
    const fs::path dir = fresh_dir("ftc_serve_spool_reuse");
    {
        spool journal(dir);
        (void)journal.append(bytes("first"));
        (void)journal.append(bytes("second payload"));
        journal.mark_done(1);
        journal.mark_done(2);
    }
    fs::resize_file(dir / "job-2.json", 20);  // truncated metadata
    {
        std::ofstream orphan(dir / "job-3.pcap", std::ios::binary);
        orphan << "crashed before its metadata";
    }
    spool reopened(dir);
    ASSERT_EQ(reopened.entries().size(), 1u);  // job 2 is quarantined
    EXPECT_EQ(reopened.append(bytes("fourth")), 4u);
    EXPECT_EQ(slurp(dir / "job-2.pcap"), "second payload");
    EXPECT_EQ(slurp(dir / "job-3.pcap"), "crashed before its metadata");
}

TEST(ServeSpool, UnwritableDirectoryFailsAtConstruction) {
#if defined(__unix__)
    if (::geteuid() == 0) {
        GTEST_SKIP() << "root ignores directory permissions";
    }
    const fs::path dir = fresh_dir("ftc_serve_spool_ro");
    fs::create_directories(dir);
    fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec);
    EXPECT_THROW(spool{dir}, ftc::error);
    fs::permissions(dir, fs::perms::owner_all);
#else
    GTEST_SKIP() << "permission probe is unix-only";
#endif
}

}  // namespace
}  // namespace ftc::serve
