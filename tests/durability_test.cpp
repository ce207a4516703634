// Durable-execution tests: the write-ahead job journal, resume, watchdog /
// retry / quarantine semantics behind asbr-sweep --journal and asbr-faults
// campaign --journal (docs/robustness.md).
//
// The load-bearing property is the same byte-identity ci/resume.sh proves
// with the real binaries: a run that crashed (journal truncated mid-record)
// and was resumed must serialize exactly the bytes of the run that never
// crashed, at any thread count.  On top of that: torn/garbage journal lines
// must degrade to "job not finished" rather than corrupt state, quarantine
// must be sticky across resume until --max-attempts is raised, and an
// interrupt must skip cleanly instead of recording a failure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/deadline.hpp"
#include "driver/engine.hpp"
#include "driver/journal.hpp"
#include "driver/names.hpp"
#include "driver/sweep.hpp"
#include "report/fault_report.hpp"
#include "report/sweep_report.hpp"
#include "util/ensure.hpp"

namespace {

using namespace asbr;
using namespace asbr::driver;

SimJob tinyJob(BenchId id, const std::string& predictor, bool asbr) {
    CliOptions options;
    options.adpcmSamples = 1'000;
    options.g721Samples = 400;
    SimJob job;
    job.workload = id;
    job.seed = options.seed;
    job.samples = samplesFor(options, id);
    job.predictor = predictor;
    job.figure = "test";
    job.asbr = asbr;
    return job;
}

std::vector<SimJob> tinyGrid() {
    std::vector<SimJob> jobs;
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "bimodal", false));
    SimJob bit2 = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    bit2.bitEntries = 2;
    jobs.push_back(bit2);
    SimJob bit4 = bit2;
    bit4.bitEntries = 4;
    jobs.push_back(bit4);
    jobs.push_back(tinyJob(BenchId::kAdpcmDecode, "bi512", true));
    return jobs;
}

/// Fresh scratch directory under the gtest temp root.
std::string freshDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "asbr_durability_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string journalPath(const std::string& dir) {
    return dir + "/journal.jsonl";
}

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
}

/// Keep the first `lines` journal lines and append `tail` verbatim —
/// simulates a crash that tore the write at an arbitrary byte.
void truncateJournal(const std::string& dir, std::size_t lines,
                     const std::string& tail) {
    const std::string text = readFile(journalPath(dir));
    std::string kept;
    std::size_t seen = 0;
    std::size_t start = 0;
    while (seen < lines) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) break;
        kept.append(text, start, nl - start + 1);
        start = nl + 1;
        ++seen;
    }
    writeFile(journalPath(dir), kept + tail);
}

/// Truncate right after the first "done" record (parallel runs interleave
/// records, so a fixed line count could keep zero completed jobs) and tear
/// the next line mid-byte.
void truncateAfterFirstDone(const std::string& dir, const std::string& tail) {
    const std::string text = readFile(journalPath(dir));
    std::istringstream in(text);
    std::string line;
    std::size_t lines = 0;
    bool sawDone = false;
    while (!sawDone && std::getline(in, line)) {
        ++lines;
        sawDone = line.rfind(R"({"status":"done")", 0) == 0;
    }
    ASSERT_TRUE(sawDone) << "journal holds no completed record to keep";
    truncateJournal(dir, lines, tail);
}

/// The exact document asbr-sweep serializes from a durable outcome.
std::string sweepDocBytes(const DurableRunResult& outcome) {
    std::vector<SweepCell> cells;
    for (const CellOutcome& cell : outcome.cells) {
        SweepCell out;
        out.job = cell.key;
        out.status = cell.status == CellStatus::kOk ? "ok" : "failed";
        out.attempts = cell.attempts;
        out.report = cell.report;
        out.error = cell.error;
        cells.push_back(std::move(out));
    }
    return sweepReportJson("durability_test", JsonValue(JsonObject{}), cells)
        .dump(2);
}

/// A fixed fault-report header; only the records and outcomes differ.
FaultReportMeta campaignMeta(const SimJob& job) {
    FaultReportMeta meta;
    meta.benchmark = benchToken(job.workload);
    meta.predictor = job.predictor;
    meta.seed = job.seed;
    meta.samples = job.samples;
    meta.updateStage = valueStageName(job.updateStage);
    return meta;
}

std::size_t journalLines(const std::string& dir) {
    std::istringstream lines(readFile(journalPath(dir)));
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) ++count;
    return count;
}

DurablePolicy journalPolicy(const std::string& dir, bool resume) {
    DurablePolicy policy;
    policy.journalDir = dir;
    policy.resume = resume;
    return policy;
}

TEST(BackoffTest, ScheduleIsDeterministicAndBounded) {
    EXPECT_EQ(backoffDelayMs(0), 0u);
    EXPECT_EQ(backoffDelayMs(1), 0u);  // the first attempt never waits
    EXPECT_EQ(backoffDelayMs(2), 25u);  // the first retry (attempt 2)
    EXPECT_EQ(backoffDelayMs(3), 50u);
    EXPECT_EQ(backoffDelayMs(4), 100u);
    EXPECT_EQ(backoffDelayMs(5), 200u);
    EXPECT_EQ(backoffDelayMs(6), 400u);
    EXPECT_EQ(backoffDelayMs(7), 400u);  // capped
    EXPECT_EQ(backoffDelayMs(64), 400u);  // no shift overflow
}

TEST(JobKeyTest, KeysAreDistinctAcrossAGrid) {
    SimEngine engine;
    const std::vector<SimJob> jobs = tinyGrid();
    std::vector<std::string> keys;
    for (const SimJob& job : jobs) keys.push_back(engine.jobKey(job));
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << "jobs " << i << " and " << j;
    // Keys are filesystem-safe: journal artifacts are named after them.
    for (const std::string& key : keys)
        EXPECT_EQ(key.find('/'), std::string::npos) << key;
}

TEST(JobJournalTest, ReplayFoldsRecordsAndSkipsGarbage) {
    const std::string dir = freshDir("replay");
    const std::string digest = fnv1a64Hex("grid");
    {
        JobJournal journal(dir, false, digest, 3);
        journal.recordStart("a", 1);
        journal.recordFailed("a", 1, "boom");
        journal.recordStart("a", 2);
        journal.recordDone("a", 2, "artifacts/a.json", fnv1a64Hex("x"));
        journal.recordStart("b", 1);  // dangling: crashed mid-attempt
    }
    // A torn trailing write plus unparseable garbage in the middle.
    std::ofstream(journalPath(dir), std::ios::app)
        << "not json at all\n"
        << R"({"status":"done","jobKey":"c","att)";  // no newline: torn

    JobJournal journal(dir, true, digest, 3);
    EXPECT_EQ(journal.skippedLines(), 2u);

    const JournalEntry* a = journal.entry("a");
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->done);
    EXPECT_EQ(a->doneAttempt, 2u);
    EXPECT_EQ(a->failedAttempts, 1u);
    EXPECT_EQ(a->lastError, "boom");
    EXPECT_EQ(a->artifactPath, "artifacts/a.json");

    // The dangling "running" record must not count as an attempt.
    const JournalEntry* b = journal.entry("b");
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->done);
    EXPECT_EQ(b->failedAttempts, 0u);

    EXPECT_EQ(journal.entry("c"), nullptr);  // torn record never landed
}

TEST(JobJournalTest, FreshModeRefusesAnExistingJournal) {
    const std::string dir = freshDir("fresh");
    { JobJournal journal(dir, false, fnv1a64Hex("grid"), 1); }
    EXPECT_THROW(JobJournal(dir, false, fnv1a64Hex("grid"), 1), EnsureError);
}

TEST(JobJournalTest, ResumeRefusesManifestMismatch) {
    const std::string dir = freshDir("manifest");
    { JobJournal journal(dir, false, fnv1a64Hex("grid"), 2); }
    // Same digest + count resumes fine...
    { JobJournal journal(dir, true, fnv1a64Hex("grid"), 2); }
    // ...but a different grid or cardinality is refused loudly.
    EXPECT_THROW(JobJournal(dir, true, fnv1a64Hex("other"), 2), EnsureError);
    EXPECT_THROW(JobJournal(dir, true, fnv1a64Hex("grid"), 3), EnsureError);
    // Resuming a directory with no journal at all is also an error.
    EXPECT_THROW(JobJournal(freshDir("missing"), true, fnv1a64Hex("grid"), 1),
                 EnsureError);
}

TEST(JobJournalTest, ArtifactDigestMismatchIsRejected) {
    const std::string dir = freshDir("artifact");
    JobJournal journal(dir, false, fnv1a64Hex("grid"), 1);
    const std::string rel = JobJournal::artifactPathFor("job-a");
    journal.writeArtifact(rel, "payload");
    EXPECT_TRUE(journal.readArtifact(rel, fnv1a64Hex("payload")).has_value());
    EXPECT_FALSE(journal.readArtifact(rel, fnv1a64Hex("tampered")).has_value());
    EXPECT_FALSE(
        journal.readArtifact("artifacts/nope.json", fnv1a64Hex("payload"))
            .has_value());
}

TEST(DurableRun, ResumeAfterTornJournalByteMatchesOneShot) {
    const std::vector<SimJob> jobs = tinyGrid();

    SimEngine plain({.threads = 1});
    const std::string oneShot = sweepDocBytes(plain.runDurable(jobs, {}));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const std::string dir =
            freshDir("resume_t" + std::to_string(threads));
        {
            SimEngine first({.threads = threads});
            const DurableRunResult full =
                first.runDurable(jobs, journalPolicy(dir, false));
            EXPECT_EQ(full.countWith(CellStatus::kOk), jobs.size());
        }
        // Crash simulation: everything up to the first completed record
        // survives, the next record is torn mid-byte.
        truncateAfterFirstDone(dir, R"({"status":"done","jobKey":)");

        SimEngine second({.threads = threads});
        const DurableRunResult resumed =
            second.runDurable(jobs, journalPolicy(dir, true));
        EXPECT_GE(second.stats().jobsResumed, 1u);
        EXPECT_EQ(resumed.resumedJobs, second.stats().jobsResumed);
        EXPECT_EQ(sweepDocBytes(resumed), oneShot)
            << "resumed sweep diverged at --threads=" << threads;
    }
}

TEST(DurableRun, CorruptArtifactIsSilentlyRecomputed) {
    const std::vector<SimJob> jobs = tinyGrid();
    const std::string dir = freshDir("corrupt_artifact");
    SimEngine plain({.threads = 1});
    const std::string oneShot = sweepDocBytes(plain.runDurable(jobs, {}));
    {
        SimEngine first({.threads = 1});
        (void)first.runDurable(jobs, journalPolicy(dir, false));
    }
    // Flip every artifact's bytes; the recorded digests no longer match, so
    // resume must recompute rather than splice corrupt documents.
    for (const auto& entry :
         std::filesystem::directory_iterator(dir + "/artifacts"))
        writeFile(entry.path().string(), "{\"corrupt\": true}");

    SimEngine second({.threads = 1});
    const DurableRunResult resumed =
        second.runDurable(jobs, journalPolicy(dir, true));
    EXPECT_EQ(second.stats().jobsResumed, 0u);
    EXPECT_EQ(sweepDocBytes(resumed), oneShot);
}

TEST(DurableRun, PersistentFailureQuarantinesWithoutAborting) {
    std::vector<SimJob> jobs = tinyGrid();
    jobs[2].predictor = "no-such-predictor";  // resolves never, fails always

    const std::string dir = freshDir("quarantine");
    SimEngine engine({.threads = 1, .maxAttempts = 2});
    const DurableRunResult outcome =
        engine.runDurable(jobs, journalPolicy(dir, false));
    ASSERT_EQ(outcome.cells.size(), jobs.size());
    EXPECT_EQ(outcome.countWith(CellStatus::kOk), jobs.size() - 1);
    EXPECT_EQ(outcome.countWith(CellStatus::kFailed), 1u);
    EXPECT_FALSE(outcome.interrupted);

    const CellOutcome& failed = outcome.cells[2];
    EXPECT_EQ(failed.status, CellStatus::kFailed);
    EXPECT_EQ(failed.attempts, 2u);
    EXPECT_FALSE(failed.error.empty());

    // The serialized report carries the quarantine, and still validates.
    const std::string doc = sweepDocBytes(outcome);
    const JsonParseResult parsed = parseJson(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validateSweepReportJson(*parsed.value).ok());
    const JsonValue* failedJobs = parsed.value->find("failed_jobs");
    ASSERT_NE(failedJobs, nullptr);
    ASSERT_EQ(failedJobs->asArray().size(), 1u);

    // Resume at the same budget: the quarantine is sticky (no re-run)...
    SimEngine again({.threads = 1, .maxAttempts = 2});
    const DurableRunResult sticky =
        again.runDurable(jobs, journalPolicy(dir, true));
    EXPECT_EQ(sticky.cells[2].status, CellStatus::kFailed);
    EXPECT_EQ(sticky.cells[2].attempts, 2u);

    // ...until --max-attempts is raised, which re-runs (and fails again,
    // with the attempt counter advancing past the journaled failures).
    SimEngine third({.threads = 1, .maxAttempts = 3});
    const DurableRunResult retried =
        third.runDurable(jobs, journalPolicy(dir, true));
    EXPECT_EQ(retried.cells[2].status, CellStatus::kFailed);
    EXPECT_EQ(retried.cells[2].attempts, 3u);
}

TEST(DurableRun, WallClockWatchdogTripsAndQuarantines) {
    // A G.721 run is orders of magnitude longer than 1 ms of host time, so
    // the deadline trips at one of its 2^16-cycle checks on every attempt.
    CliOptions options;
    options.g721Samples = 20'000;
    SimJob job;
    job.workload = BenchId::kG721Encode;
    job.samples = samplesFor(options, job.workload);
    job.predictor = "bimodal";
    job.figure = "test";

    SimEngine engine({.threads = 1, .jobTimeoutMs = 1, .maxAttempts = 2});
    const DurableRunResult outcome = engine.runDurable({job}, {});
    ASSERT_EQ(outcome.cells.size(), 1u);
    EXPECT_EQ(outcome.cells[0].status, CellStatus::kFailed);
    EXPECT_EQ(outcome.cells[0].attempts, 2u);
    EXPECT_EQ(outcome.cells[0].error,
              watchdogMessage("job", "wall-clock", 1, "ms"));
}

TEST(DurableRun, WatchdogAbandonsTheProfileWalk) {
    // The ASBR job's profile walk checks its deadline too: a 1 ms watchdog
    // trips inside the walk, before the selection is computed, instead of
    // after a G.721 walk has run to its end.
    CliOptions options;
    options.g721Samples = 20'000;
    SimJob job;
    job.workload = BenchId::kG721Encode;
    job.samples = samplesFor(options, job.workload);
    job.figure = "test";
    job.asbr = true;

    SimEngine engine({.threads = 1, .jobTimeoutMs = 1});
    EXPECT_THROW((void)engine.runOne(job), JobTimeoutError);
    EXPECT_EQ(engine.cacheStats().selectionComputes, 0u);
    EXPECT_EQ(engine.stats().jobsRun, 0u);
}

TEST(DurableRun, DuplicateKeysRunOnceAndShareTheirOutcome) {
    // adpcm-enc's paper BIT size is 4, so BIT sizes 0 and 4 resolve to one
    // key: 8 cells, 4 keys.
    SweepGrid grid;
    grid.workloads = {BenchId::kAdpcmEncode};
    grid.predictors = {"bimodal", "gshare"};
    grid.bitSizes = {0, 4};
    grid.stages = {ValueStage::kExEnd, ValueStage::kCommit};
    CliOptions options;
    options.adpcmSamples = 1'000;
    const std::vector<SimJob> jobs = expandSweep(grid, options);
    ASSERT_EQ(jobs.size(), 8u);
    std::set<std::string> keys;
    SimEngine keyer;
    for (const SimJob& job : jobs) keys.insert(keyer.jobKey(job));
    ASSERT_EQ(keys.size(), 4u);

    SimEngine serial({.threads = 1});
    const DurableRunResult reference = serial.runDurable(jobs, {});
    const std::string dir = freshDir("duplicate_keys");
    SimEngine parallel({.threads = 8});
    const DurableRunResult outcome =
        parallel.runDurable(jobs, journalPolicy(dir, false));
    EXPECT_EQ(outcome.countWith(CellStatus::kOk), jobs.size());
    EXPECT_EQ(sweepDocBytes(outcome), sweepDocBytes(reference));
    EXPECT_EQ(parallel.stats().jobsRun, keys.size());

    // One "done" record per distinct key.
    std::istringstream lines(readFile(journalPath(dir)));
    std::string line;
    std::multiset<std::string> done;
    while (std::getline(lines, line)) {
        const JsonParseResult record = parseJson(line);
        ASSERT_TRUE(record.ok()) << line;
        if (record.value->find("status")->asString() == "done")
            done.insert(record.value->find("jobKey")->asString());
    }
    EXPECT_EQ(done, std::multiset<std::string>(keys.begin(), keys.end()));
}

TEST(DurableRun, InterruptSkipsPendingJobsThenResumeCompletes) {
    const std::vector<SimJob> jobs = tinyGrid();
    const std::string dir = freshDir("interrupt");

    std::atomic<bool> interrupted{true};  // raised before anything ran
    DurablePolicy policy = journalPolicy(dir, false);
    policy.interrupted = &interrupted;

    SimEngine engine({.threads = 1});
    const DurableRunResult outcome = engine.runDurable(jobs, policy);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_EQ(outcome.countWith(CellStatus::kSkipped), jobs.size());

    // Nothing beyond the manifest may have been journaled: a skipped job
    // must not consume an attempt.
    EXPECT_EQ(journalLines(dir), 1u);

    SimEngine fresh({.threads = 1});
    const std::string oneShot = sweepDocBytes(fresh.runDurable(jobs, {}));
    SimEngine resumed({.threads = 1});
    const DurableRunResult done =
        resumed.runDurable(jobs, journalPolicy(dir, true));
    EXPECT_FALSE(done.interrupted);
    EXPECT_EQ(sweepDocBytes(done), oneShot);
}

TEST(DurableCampaign, ResumeAfterTruncationByteMatchesOneShot) {
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    CampaignConfig campaign;
    campaign.injections = 8;
    campaign.seed = 7;

    const FaultReportMeta meta = campaignMeta(job);
    SimEngine plain({.threads = 1});
    const std::string oneShot =
        faultReportJson(meta, campaign,
                        runCampaign(plain.faultFactory(job), campaign))
            .dump(2);

    const std::string dir = freshDir("campaign");
    {
        SimEngine first({.threads = 1});
        const DurableCampaignResult full =
            first.runCampaignDurable(job, campaign, journalPolicy(dir, false));
        EXPECT_TRUE(full.failed.empty());
        EXPECT_EQ(
            faultReportJson(meta, campaign, full.result, full.failed).dump(2),
            oneShot);
    }
    // Crash after the first completed injection, tearing the next line.
    truncateAfterFirstDone(dir, R"({"status":"runn)");

    SimEngine second({.threads = 8});
    const DurableCampaignResult resumed =
        second.runCampaignDurable(job, campaign, journalPolicy(dir, true));
    EXPECT_GE(resumed.resumedJobs, 1u);
    EXPECT_TRUE(resumed.failed.empty());
    EXPECT_EQ(
        faultReportJson(meta, campaign, resumed.result, resumed.failed).dump(2),
        oneShot)
        << "resumed campaign diverged from the uninterrupted run";
}

TEST(DurableCampaign, WallClockWatchdogQuarantinesInjections) {
    // Every injected G.721 run outlasts 1 ms of host time, so each attempt
    // trips the deadline at one of its 2^16-cycle checks.
    SimJob job = tinyJob(BenchId::kG721Encode, "bimodal", true);
    job.samples = 2'000;
    CampaignConfig campaign;
    campaign.injections = 4;

    const std::string dir = freshDir("campaign_watchdog");
    SimEngine engine({.threads = 1, .jobTimeoutMs = 1, .maxAttempts = 2});
    const DurableCampaignResult outcome =
        engine.runCampaignDurable(job, campaign, journalPolicy(dir, false));
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_TRUE(outcome.result.records.empty());
    EXPECT_EQ(engine.stats().jobsRun, 0u);
    ASSERT_EQ(outcome.failed.size(), campaign.injections);
    for (std::size_t i = 0; i < outcome.failed.size(); ++i) {
        EXPECT_EQ(outcome.failed[i].index, i);
        EXPECT_EQ(outcome.failed[i].attempts, 2u);
        EXPECT_EQ(outcome.failed[i].error,
                  watchdogMessage("job", "wall-clock", 1, "ms"));
    }

    // Resumed at the same budget, the quarantine is sticky: no injection
    // runs again and the journal gains no record.
    const std::size_t lines = journalLines(dir);
    SimEngine again({.threads = 1, .jobTimeoutMs = 1, .maxAttempts = 2});
    const DurableCampaignResult sticky =
        again.runCampaignDurable(job, campaign, journalPolicy(dir, true));
    ASSERT_EQ(sticky.failed.size(), campaign.injections);
    for (const FailedInjection& failed : sticky.failed) {
        EXPECT_EQ(failed.attempts, 2u);
        EXPECT_EQ(failed.error, watchdogMessage("job", "wall-clock", 1, "ms"));
    }
    EXPECT_EQ(journalLines(dir), lines);
}

TEST(DurableCampaign, InterruptSkipsPendingInjectionsThenResumeCompletes) {
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    CampaignConfig campaign;
    campaign.injections = 4;
    campaign.seed = 7;
    const FaultReportMeta meta = campaignMeta(job);

    const std::string dir = freshDir("campaign_interrupt");
    std::atomic<bool> interrupted{true};  // raised before anything ran
    DurablePolicy policy = journalPolicy(dir, false);
    policy.interrupted = &interrupted;
    SimEngine engine({.threads = 1});
    const DurableCampaignResult outcome =
        engine.runCampaignDurable(job, campaign, policy);
    EXPECT_TRUE(outcome.interrupted);
    EXPECT_TRUE(outcome.result.records.empty());
    EXPECT_TRUE(outcome.failed.empty());
    EXPECT_EQ(journalLines(dir), 1u);  // the manifest alone

    SimEngine plain({.threads = 1});
    const std::string oneShot =
        faultReportJson(meta, campaign,
                        runCampaign(plain.faultFactory(job), campaign))
            .dump(2);
    SimEngine resumed({.threads = 1});
    const DurableCampaignResult done =
        resumed.runCampaignDurable(job, campaign, journalPolicy(dir, true));
    EXPECT_FALSE(done.interrupted);
    EXPECT_EQ(faultReportJson(meta, campaign, done.result, done.failed).dump(2),
              oneShot);
}

TEST(DurableCampaign, ManifestPinsCampaignConfig) {
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    CampaignConfig campaign;
    campaign.injections = 4;
    campaign.seed = 7;

    const std::string dir = freshDir("campaign_manifest");
    SimEngine engine({.threads = 1});
    (void)engine.runCampaignDurable(job, campaign, journalPolicy(dir, false));

    CampaignConfig different = campaign;
    different.seed = 8;
    EXPECT_THROW((void)engine.runCampaignDurable(job, different,
                                                 journalPolicy(dir, true)),
                 EnsureError);
}

}  // namespace
