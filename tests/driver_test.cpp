// Driver-layer tests: deterministic parallel execution and once-per-key
// artifact caching (docs/architecture.md, "Driver layer").
//
// The load-bearing property is byte-identity: a job batch, a fault campaign
// and a sweep must serialize to exactly the same JSON whether the engine ran
// them on 1 thread or 8 (and across repeated 8-thread runs).  These tests
// pin that down by diffing whole serialized documents, the same way
// ci/bench-report.sh and ci/faults.sh do with the real binaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/journal.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "driver/sweep.hpp"
#include "report/fault_report.hpp"
#include "report/report.hpp"
#include "report/sweep_report.hpp"
#include "util/ensure.hpp"

namespace {

using namespace asbr;
using namespace asbr::driver;

CliOptions tinyOptions() {
    CliOptions options;
    options.adpcmSamples = 1'000;
    options.g721Samples = 400;
    return options;
}

SimJob tinyJob(BenchId id, const std::string& predictor, bool asbr) {
    const CliOptions options = tinyOptions();
    SimJob job;
    job.workload = id;
    job.seed = options.seed;
    job.samples = samplesFor(options, id);
    job.predictor = predictor;
    job.figure = "test";
    job.asbr = asbr;
    return job;
}

/// A batch mixing baseline and ASBR jobs, two workloads, one non-default
/// selection (EX-end stage) — enough key diversity to exercise the cache.
std::vector<SimJob> mixedBatch() {
    std::vector<SimJob> jobs;
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "bimodal", false));
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "bi512", true));
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "not-taken", true));
    jobs.push_back(tinyJob(BenchId::kG721Encode, "gshare", false));
    jobs.push_back(tinyJob(BenchId::kG721Encode, "bi512", true));
    SimJob exEnd = tinyJob(BenchId::kG721Encode, "bi256", true);
    exEnd.updateStage = ValueStage::kExEnd;
    jobs.push_back(exEnd);
    return jobs;
}

/// Serialize every run report of a batch into one string for whole-document
/// comparison (the JSON layer is deterministic, so equal strings means equal
/// results down to the last counter).
std::string serializeBatch(const std::vector<JobResult>& results) {
    std::string text;
    for (const JobResult& r : results) text += simReportJson(r.report).dump(2);
    return text;
}

TEST(DriverDeterminism, BatchBytesIdenticalAcrossThreadCounts) {
    const std::vector<SimJob> jobs = mixedBatch();

    SimEngine serial({.threads = 1});
    SimEngine parallelA({.threads = 8});
    SimEngine parallelB({.threads = 8});
    const std::string s1 = serializeBatch(serial.run(jobs));
    const std::string p1 = serializeBatch(parallelA.run(jobs));
    const std::string p2 = serializeBatch(parallelB.run(jobs));

    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(s1, p1) << "1-thread and 8-thread batches diverged";
    EXPECT_EQ(p1, p2) << "two 8-thread batches diverged";

    // The engine counters are deterministic functions of the submitted work,
    // so they must agree across thread counts too.
    const EngineStats a = serial.stats();
    const EngineStats b = parallelA.stats();
    EXPECT_EQ(a.jobsRun, jobs.size());
    EXPECT_EQ(a.jobsRun, b.jobsRun);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.workerBusyCycles, b.workerBusyCycles);
}

TEST(DriverDeterminism, CampaignBytesIdenticalAcrossThreadCounts) {
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    CampaignConfig campaign;
    campaign.injections = 12;
    campaign.seed = 7;

    FaultReportMeta meta;  // fixed header; only the records/outcomes matter
    meta.benchmark = benchToken(job.workload);
    meta.predictor = job.predictor;
    meta.seed = job.seed;
    meta.samples = job.samples;
    meta.updateStage = valueStageName(job.updateStage);

    // The serial campaign loop is the reference; the engine samples every
    // injection in its RNG order and merges records by sampling index.
    SimEngine serial({.threads = 1});
    const std::string reference =
        faultReportJson(meta, campaign,
                        runCampaign(serial.faultFactory(job), campaign))
            .dump(2);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SimEngine engine({.threads = threads});
        const DurableCampaignResult outcome =
            engine.runCampaignDurable(job, campaign, {});
        EXPECT_EQ(faultReportJson(meta, campaign, outcome.result,
                                  outcome.failed)
                      .dump(2),
                  reference)
            << "fault campaign diverged at --threads=" << threads;
    }
}

TEST(DriverDeterminism, SweepReportBytesIdenticalAcrossThreadCounts) {
    SweepGrid grid;
    grid.workloads = {BenchId::kAdpcmEncode};
    grid.predictors = {"bi512"};
    grid.bitSizes = {2, 4};
    grid.includeBaseline = true;
    const CliOptions options = tinyOptions();
    const std::vector<SimJob> jobs = expandSweep(grid, options);
    ASSERT_EQ(jobs.size(), 3u);  // baseline + two BIT sizes

    auto sweepText = [&](std::size_t threads) {
        SimEngine engine({.threads = threads});
        // Durable executor without a journal — the code path asbr-sweep uses.
        const DurableRunResult outcome = engine.runDurable(jobs, {});
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
        return sweepReportJson("driver_test", JsonValue(JsonObject{}), cells)
            .dump(2);
    };
    const std::string s1 = sweepText(1);
    const std::string p1 = sweepText(8);
    const std::string p2 = sweepText(8);
    EXPECT_EQ(s1, p1) << "sweep report diverged across thread counts";
    EXPECT_EQ(p1, p2) << "two 8-thread sweeps diverged";

    const JsonParseResult parsed = parseJson(s1);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validate(*parsed.value, kSweepReportSpec).ok());
}

TEST(DriverDeterminism, SampledSweepCellsMatchTheirOwnRuns) {
    // --sample makes every cell a sampled run; the cells of one workload
    // share its fast-forward log, and sharing it changes no byte: each
    // cell's report equals that of the same job run alone.
    SweepGrid grid;
    grid.workloads = {BenchId::kAdpcmEncode};
    grid.bitSizes = {2, 4};
    grid.stages = {ValueStage::kExEnd, ValueStage::kCommit};
    grid.includeBaseline = true;
    CliOptions options = tinyOptions();
    options.sample = SamplingConfig{500, 2'000, 8'000};
    const std::vector<SimJob> jobs = expandSweep(grid, options);
    ASSERT_EQ(jobs.size(), 5u);
    for (const SimJob& job : jobs) {
        EXPECT_TRUE(job.sampled);
        EXPECT_EQ(job.sampling, *options.sample);
    }
    SimEngine engine({.threads = 4});
    const DurableRunResult outcome = engine.runDurable(jobs, {});
    ASSERT_EQ(outcome.cells.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(outcome.cells[i].status, CellStatus::kOk)
            << outcome.cells[i].error;
        SimEngine alone;
        const JobResult result = alone.runOne(jobs[i]);
        ASSERT_NE(result.sampled, nullptr);
        EXPECT_GT(result.sampled->fastForwardInstructions, 0u);
        EXPECT_EQ(outcome.cells[i].report.dump(2),
                  simReportJson(result.report).dump(2))
            << outcome.cells[i].key;
    }
}

/// Six codecs x {bimodal, tage} x {baseline, ASBR at BIT {paper size, 4} x
/// stage {ex_end, commit}}: 60 cells on small inputs.
std::vector<SimJob> twinGrid() {
    SweepGrid grid;
    grid.predictors = {"bimodal", "tage"};
    grid.bitSizes = {0, 4};
    grid.stages = {ValueStage::kExEnd, ValueStage::kCommit};
    grid.includeBaseline = true;
    return expandSweep(grid, tinyOptions());
}

/// Cells of twinGrid() that simulate a machine an earlier cell simulates.
/// On these inputs the paper-size BIT and the 4-entry BIT hold the same
/// branches on four codecs (ADPCM encode, whose paper size is 4, and
/// decode; G.711 encode and decode), at both stages and for both
/// predictors: 4 x 2 x 2 twins.
constexpr std::uint64_t kGridTwins = 16;

TEST(RunSharing, TwinsAreCellsWhoseBitsHoldTheSameBranches) {
    // The sharing rests on the selections: count the (codec, predictor,
    // stage) points whose two BIT sizes load equal entries.
    SimEngine engine;
    const std::vector<SimJob> jobs = twinGrid();
    ASSERT_EQ(jobs.size(), 60u);
    std::uint64_t twins = 0;
    for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
        const SimJob& paper = jobs[i];
        if (!paper.asbr || paper.bitEntries != 0) continue;
        SimJob four = paper;
        four.bitEntries = 4;
        (void)engine.workloadFor(paper);
        std::vector<std::uint32_t> paperPcs;
        std::vector<std::uint32_t> fourPcs;
        for (const BranchInfo& info : engine.selectionFor(paper)->branchInfos())
            paperPcs.push_back(info.pc);
        for (const BranchInfo& info : engine.selectionFor(four)->branchInfos())
            fourPcs.push_back(info.pc);
        if (paperPcs == fourPcs) ++twins;
    }
    EXPECT_EQ(twins, kGridTwins);
}

TEST(RunSharing, TwinCellsShareOneRunAndKeepTheirOwnReports) {
    // Each distinct machine simulates once per batch, at any thread count,
    // and every cell's report is byte-identical to the report the cell gets
    // alone on a fresh engine: its own BIT capacity and storage included.
    // The reference cells are independent, so they run on four workers.
    const std::vector<SimJob> jobs = twinGrid();
    std::vector<std::string> alone(jobs.size());
    parallelFor(jobs.size(), 4, [&](std::size_t i) {
        SimEngine fresh;
        alone[i] = simReportJson(fresh.runOne(jobs[i]).report).dump(2);
    });
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SimEngine engine({.threads = threads});
        const std::vector<JobResult> results = engine.run(jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(simReportJson(results[i].report).dump(2), alone[i])
                << "cell " << i << " at --threads=" << threads;
        EXPECT_EQ(engine.stats().jobsRun, jobs.size() - kGridTwins)
            << threads << " thread(s)";
        EXPECT_EQ(engine.stats().jobsShared, kGridTwins)
            << threads << " thread(s)";
    }
    // A run alone shares nothing.
    SimEngine single;
    (void)single.runOne(jobs[1]);
    (void)single.runOne(jobs[1]);
    EXPECT_EQ(single.stats().jobsRun, 2u);
    EXPECT_EQ(single.stats().jobsShared, 0u);
}

TEST(RunSharing, TracedCellsNeverShare) {
    // A traced cell owns its tracer, so it simulates for itself; its
    // untraced twins still share one run.
    SimJob traced = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    traced.trace = true;
    const SimJob untraced = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    SimEngine engine({.threads = 4});
    const std::vector<JobResult> results =
        engine.run({traced, untraced, traced, untraced});
    EXPECT_EQ(engine.stats().jobsRun, 3u);
    EXPECT_EQ(engine.stats().jobsShared, 1u);
    ASSERT_NE(results[0].tracer, nullptr);
    ASSERT_NE(results[2].tracer, nullptr);
    EXPECT_NE(results[0].tracer, results[2].tracer);
    EXPECT_FALSE(results[0].tracer->events().empty());
    EXPECT_EQ(results[0].tracer->events().size(),
              results[2].tracer->events().size());
    for (const JobResult& result : results)
        EXPECT_EQ(simReportJson(result.report).dump(2),
                  simReportJson(results[0].report).dump(2));
}

TEST(RunSharing, DurableGridJournalsEveryKeyAndMatchesRun) {
    // runDurable over the twin grid: one artifact per distinct job key, each
    // cell's report equal to run()'s, and the same runs shared.
    const std::vector<SimJob> jobs = twinGrid();
    SimEngine batch({.threads = 8});
    const std::vector<JobResult> results = batch.run(jobs);

    const std::string dir = testing::TempDir() + "asbr_driver_twins";
    std::filesystem::remove_all(dir);
    DurablePolicy policy;
    policy.journalDir = dir;
    SimEngine durable({.threads = 8});
    const DurableRunResult outcome = durable.runDurable(jobs, policy);
    ASSERT_EQ(outcome.cells.size(), jobs.size());
    std::set<std::string> keys;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CellOutcome& cell = outcome.cells[i];
        ASSERT_EQ(cell.status, CellStatus::kOk) << cell.error;
        EXPECT_EQ(cell.report.dump(2),
                  simReportJson(results[i].report).dump(2))
            << cell.key;
        keys.insert(cell.key);
        EXPECT_TRUE(std::filesystem::is_regular_file(
            std::filesystem::path(dir) / JobJournal::artifactPathFor(cell.key)))
            << cell.key;
    }
    const std::filesystem::path artifacts =
        (std::filesystem::path(dir) /
         JobJournal::artifactPathFor(*keys.begin()))
            .parent_path();
    std::size_t written = 0;
    for (const auto& entry : std::filesystem::directory_iterator(artifacts))
        if (entry.is_regular_file()) ++written;
    EXPECT_EQ(written, keys.size());
    // Cells with equal keys count as shared too, so both paths agree.
    EXPECT_LT(keys.size(), jobs.size());
    EXPECT_EQ(durable.stats().jobsRun, batch.stats().jobsRun);
    EXPECT_EQ(durable.stats().jobsShared, batch.stats().jobsShared);
}

TEST(ArtifactCacheTest, ThrownComputationIsNotKept) {
    // A walk abandoned at one job's deadline must not fail later jobs: the
    // error reaches that request only, and the next request computes.
    OncePerKey<int, int> store;
    EXPECT_THROW((void)store.get(1, []() -> std::shared_ptr<const int> {
                     throw JobTimeoutError("abandoned");
                 }),
                 JobTimeoutError);
    EXPECT_EQ(*store.get(1, [] { return std::make_shared<const int>(7); }), 7);
    EXPECT_EQ(*store.get(1, [] { return std::make_shared<const int>(8); }), 7);
    EXPECT_EQ(store.computes(), 1u);
    EXPECT_EQ(store.hits(), 1u);
}

TEST(ArtifactCacheTest, WaiterOfAThrownComputationComputesItself) {
    // A request blocked on another's computation when that one throws (its
    // job's deadline) computes with its own make: it does not fail with
    // another job's error.
    OncePerKey<int, int> store;
    std::atomic<bool> computing{false};
    std::thread owner([&] {
        EXPECT_THROW((void)store.get(1, [&]() -> std::shared_ptr<const int> {
                         computing = true;
                         // Throw only once the waiter holds this slot.
                         while (store.hits() == 0) std::this_thread::yield();
                         throw JobTimeoutError("owner's deadline");
                     }),
                     JobTimeoutError);
    });
    while (!computing) std::this_thread::yield();
    std::shared_ptr<const int> value;
    EXPECT_NO_THROW(
        value = store.get(1, [] { return std::make_shared<const int>(7); }));
    owner.join();
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 7);
    EXPECT_EQ(store.computes(), 1u);
    EXPECT_EQ(store.hits(), 1u);
}

TEST(ArtifactCacheTest, ComputesOncePerKeyUnderConcurrentSubmission) {
    // 16 identical ASBR jobs race for the same two cache keys on 8 workers:
    // the workload must be loaded+profiled once and the selection computed
    // once, however the races fall.
    const std::vector<SimJob> jobs(16,
                                   tinyJob(BenchId::kAdpcmEncode, "bi512",
                                           true));
    SimEngine engine({.threads = 8});
    const std::vector<JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const JobResult& r : results)
        EXPECT_EQ(r.stats.cycles, results.front().stats.cycles);

    const ArtifactCache::Stats stats = engine.cacheStats();
    EXPECT_EQ(stats.workloadComputes, 1u);
    EXPECT_EQ(stats.selectionComputes, 1u);
    // Requests: one workload + one selection per job, plus the selection
    // compute resolving its workload — minus the two actual computes.
    EXPECT_EQ(stats.hits, 2u * jobs.size() + 1 - 2);
}

TEST(ArtifactCacheTest, DistinctKeysDoNotShareArtifacts) {
    SimEngine engine({.threads = 4});
    SimJob a = tinyJob(BenchId::kAdpcmEncode, "bi512", true);
    SimJob b = a;
    b.bitEntries = 2;  // different selection, same workload
    SimJob c = a;
    c.scheduled = false;  // different workload key entirely
    (void)engine.run({a, b, c});
    const ArtifactCache::Stats stats = engine.cacheStats();
    EXPECT_EQ(stats.workloadComputes, 2u);
    EXPECT_EQ(stats.selectionComputes, 3u);
}

TEST(ArtifactCacheTest, BaselineAccuracyIsTheCachedBimodalProfile) {
    // Selection's reference is the "bimodal" entry of the per-token
    // prediction cache: eight threads racing for it under both names all
    // get the one object.
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    const WorkloadArtifacts workload(
        {job.workload, job.scheduled, job.seed, job.samples});
    std::vector<const PredictionProfile*> byName(8);
    std::vector<const PredictionProfile*> byToken(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < byName.size(); ++t)
        threads.emplace_back([&, t] {
            if (t % 2 == 0) byName[t] = &workload.baselineAccuracy();
            byToken[t] = workload.predictionProfile("bimodal").get();
            if (t % 2 == 1) byName[t] = &workload.baselineAccuracy();
        });
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < byName.size(); ++t) {
        EXPECT_EQ(byName[t], byName.front());
        EXPECT_EQ(byToken[t], byName.front());
    }
    EXPECT_EQ(byName.front()->predictorToken, "bimodal");
    EXPECT_GT(byName.front()->branches, 0u);
}

TEST(ArtifactCacheTest, PredictionTokensAreNotCacheHits) {
    // mixedBatch plus predictor-aware jobs, one on the "bimodal" token the
    // selection reference also uses.  Only workload and selection requests
    // count: 13 workload requests (one per job, one per selection compute)
    // over 2 keys and 6 selection requests over 5 keys give 11 + 1 hits,
    // the same as when the reference was a separate pipeline run.
    std::vector<SimJob> jobs = mixedBatch();
    for (const char* token : {"bimodal", "tage"}) {
        SimJob aware = tinyJob(BenchId::kAdpcmEncode, token, true);
        aware.predictorAware = true;
        jobs.push_back(aware);
    }
    SimEngine engine({.threads = 4});
    (void)engine.run(jobs);
    EXPECT_EQ(engine.stats().cacheHits, 12u);
    MetricRegistry registry;
    engine.publishMetrics(registry);
    ASSERT_NE(registry.findCounter("engine.cache_hits"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.cache_hits")->value(), 12u);
}

/// predictionProfile(token) of `workload` equals a walk of its own.
void expectOwnWalkProfile(const WorkloadArtifacts& workload,
                          const std::string& token) {
    Memory memory = makeMemory(workload.prepared());
    const auto predictor = makePredictorByToken(token);
    const PredictionProfile want =
        profilePredictions(workload.prepared().program, memory, *predictor,
                           PipelineConfig{}.maxCycles);
    const PredictionProfile& got = *workload.predictionProfile(token);
    EXPECT_EQ(got.predictorToken, want.predictorToken) << token;
    EXPECT_EQ(got.branches, want.branches) << token;
    EXPECT_EQ(got.mispredicts, want.mispredicts) << token;
    ASSERT_EQ(got.sites.size(), want.sites.size()) << token;
    for (const auto& [pc, site] : want.sites) {
        const SitePrediction& g = got.sites.at(pc);
        EXPECT_EQ(g.pc, site.pc) << token;
        EXPECT_EQ(g.execs, site.execs) << token << " pc " << pc;
        EXPECT_EQ(g.mispredicts, site.mispredicts) << token << " pc " << pc;
    }
}

TEST(ProfileWalkRegistrationTest, AccuracyRefJobsWalkWithTheBimodalReference) {
    SimEngine engine;
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bi512", true);
    const auto workload = engine.workloadFor(job);
    EXPECT_EQ(workload->profileWalkTokens(),
              std::vector<std::string>{"bimodal"});
    expectOwnWalkProfile(*workload, "bimodal");
    EXPECT_EQ(&workload->baselineAccuracy(),
              workload->predictionProfile("bimodal").get());

    // A predictor-aware job adds its own token.
    SimJob aware = tinyJob(BenchId::kAdpcmDecode, "tage", true);
    aware.predictorAware = true;
    const auto awareWorkload = engine.workloadFor(aware);
    EXPECT_EQ(awareWorkload->profileWalkTokens(),
              (std::vector<std::string>{"bimodal", "tage"}));
    expectOwnWalkProfile(*awareWorkload, "tage");
}

TEST(ProfileWalkRegistrationTest, AccuracyRefOffJobsWalkWithNoPredictor) {
    SimEngine engine;
    SimJob job = tinyJob(BenchId::kAdpcmEncode, "bi512", true);
    job.accuracyRef = false;
    (void)engine.workloadFor(tinyJob(BenchId::kAdpcmEncode, "tage", false));
    EXPECT_TRUE(engine.workloadFor(job)->profileWalkTokens().empty());
}

TEST(ProfileWalkRegistrationTest, UnknownTokenRidesWithNothing) {
    // A job naming no predictor fails on its own request; the walk, and the
    // other jobs on the workload, are unaffected.
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    const WorkloadArtifacts workload(
        {job.workload, job.scheduled, job.seed, job.samples});
    workload.registerPrediction("bimodal");
    workload.registerPrediction("no-such-predictor");
    EXPECT_EQ(workload.profileWalkTokens(),
              std::vector<std::string>{"bimodal"});
    EXPECT_THROW((void)workload.predictionProfile("no-such-predictor"),
                 EnsureError);
    expectOwnWalkProfile(workload, "bimodal");
}

TEST(ProfileWalkRegistrationTest, TokenNamedAfterTheWalkWalksAlone) {
    SimEngine engine;
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bi512", true);
    const auto workload = engine.workloadFor(job);
    (void)workload->profile();
    SimJob aware = job;
    aware.predictor = "gshare";
    aware.predictorAware = true;
    EXPECT_EQ(engine.workloadFor(aware), workload);
    EXPECT_EQ(workload->profileWalkTokens(),
              std::vector<std::string>{"bimodal"});
    expectOwnWalkProfile(*workload, "gshare");
}

TEST(ProfileWalkRegistrationTest, AbandonedWalkIsNotKept) {
    // A walk abandoned at its poll (a job's deadline) fails its request
    // only; the next request walks again, carrying the tokens registered
    // in between.
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    const WorkloadArtifacts workload(
        {job.workload, job.scheduled, job.seed, job.samples});
    workload.registerPrediction("bimodal");
    EXPECT_THROW((void)workload.profile(
                     [] { throw JobTimeoutError("abandoned"); }),
                 JobTimeoutError);
    workload.registerPrediction("gshare");
    EXPECT_EQ(workload.profileWalkTokens(),
              (std::vector<std::string>{"bimodal", "gshare"}));
    Memory memory = makeMemory(workload.prepared());
    EXPECT_EQ(workload.profile().instructions,
              profileProgram(workload.prepared().program, memory,
                             PipelineConfig{}.maxCycles)
                  .instructions);
    expectOwnWalkProfile(workload, "gshare");
}

TEST(ProfileWalkRegistrationTest, WaiterOfAnAbandonedWalkWalksUnderItsOwnPoll) {
    // Two jobs on one workload: the first walks and is abandoned at its
    // deadline; the second, waiting with a generous deadline, walks again
    // under its own poll and gets the full profile.
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    const WorkloadArtifacts workload(
        {job.workload, job.scheduled, job.seed, job.samples});
    workload.registerPrediction("bimodal");
    std::atomic<bool> ownerWalking{false};
    std::thread owner([&] {
        EXPECT_THROW((void)workload.profile([&] {
                         ownerWalking = true;
                         // Give the second job time to wait on this walk.
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(50));
                         throw JobTimeoutError("first job's deadline");
                     }),
                     JobTimeoutError);
    });
    while (!ownerWalking) std::this_thread::yield();
    bool waiterPolled = false;
    const ProgramProfile* profile = nullptr;
    EXPECT_NO_THROW(profile = &workload.profile([&] { waiterPolled = true; }));
    owner.join();
    ASSERT_NE(profile, nullptr);
    EXPECT_TRUE(waiterPolled);
    Memory memory = makeMemory(workload.prepared());
    EXPECT_EQ(profile->instructions,
              profileProgram(workload.prepared().program, memory,
                             PipelineConfig{}.maxCycles)
                  .instructions);
    EXPECT_EQ(workload.profileWalkTokens(),
              std::vector<std::string>{"bimodal"});
    expectOwnWalkProfile(workload, "bimodal");
}

TEST(PoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> visits(257);
    parallelFor(visits.size(), 8, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(PoolTest, ParallelForDrainsAndRethrowsFirstError) {
    // Errors must not abandon the rest of the batch, on one thread as on
    // eight.
    for (const std::size_t threads : {1, 8}) {
        std::atomic<std::size_t> visited{0};
        EXPECT_THROW(parallelFor(64, threads,
                                 [&](std::size_t i) {
                                     visited.fetch_add(
                                         1, std::memory_order_relaxed);
                                     if (i == 3)
                                         throw std::runtime_error("boom");
                                 }),
                     std::runtime_error)
            << threads << " thread(s)";
        EXPECT_EQ(visited.load(), 64u) << threads << " thread(s)";
    }
}

TEST(CliOptionsTest, SharedOptionsParse) {
    CliOptions options;
    std::string error;
    EXPECT_TRUE(consumeSharedOption("--threads=8", options, error));
    EXPECT_EQ(options.threads, 8u);
    EXPECT_TRUE(consumeSharedOption("--seed=42", options, error));
    EXPECT_EQ(options.seed, 42u);
    EXPECT_TRUE(consumeSharedOption("--workload=g721-enc", options, error));
    EXPECT_TRUE(error.empty());
    ASSERT_TRUE(options.workload.has_value());
    EXPECT_EQ(*options.workload, BenchId::kG721Encode);
    EXPECT_FALSE(consumeSharedOption("--not-an-option", options, error));
}

TEST(CliOptionsTest, BadWorkloadYieldsStructuredError) {
    CliOptions options;
    std::string error;
    EXPECT_TRUE(consumeSharedOption("--workload=quake3", options, error));
    EXPECT_NE(error.find("unknown workload 'quake3'"), error.npos) << error;
    EXPECT_FALSE(options.workload.has_value());
}

TEST(CliOptionsTest, SampleSpecIsThreeBoundedDecimalCounts) {
    CliOptions options;
    std::string error;
    EXPECT_TRUE(consumeSharedOption("--sample=1000:2000:0", options, error));
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_TRUE(options.sample.has_value());
    EXPECT_EQ(*options.sample, (SamplingConfig{1'000, 2'000, 0}));
    // W+M+S = 2^63 - 1 is the largest unit the checkpoint grid accepts.
    EXPECT_TRUE(consumeSharedOption(
        "--sample=9223372036854775800:6:1", options, error));
    EXPECT_TRUE(error.empty()) << error;
    for (const char* spec :
         {"-1:2000:5000", "+1:2000:5000", "1000:-5:5000", "1000:0:5000",
          "99999999999999999999:2:3", "1000:2000:", ":2000:5000",
          "1000:2000", "1:2:3:4", " 1:2:3", "9223372036854775800:7:1"}) {
        CliOptions rejected;
        EXPECT_TRUE(consumeSharedOption(std::string("--sample=") + spec,
                                        rejected, error));
        EXPECT_NE(error.find("bad --sample spec"), error.npos) << spec;
        EXPECT_FALSE(rejected.sample.has_value()) << spec;
    }
}

TEST(CliOptionsTest, NumbersAreUnsignedDecimalsThatFitTheirType) {
    EXPECT_EQ(parseNumber<std::uint64_t>("0"), 0u);
    EXPECT_EQ(parseNumber<std::uint64_t>("0042"), 42u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseNumber<std::uint32_t>("4294967295"),
              std::numeric_limits<std::uint32_t>::max());
    for (const char* text : {"", "12abc", "-1", "+5", " 5", "5 ", "0x10",
                             "1e3", "18446744073709551616"})
        EXPECT_FALSE(parseNumber<std::uint64_t>(text).has_value()) << text;
    EXPECT_FALSE(parseNumber<std::uint32_t>("4294967296").has_value());
}

TEST(CliOptionsTest, NumArgMatchesItsPrefixAndNamesItsFlag) {
    std::uint32_t value = 7;
    std::string error;
    EXPECT_FALSE(numArg("--bits=4", "--bit=", value, error));
    EXPECT_TRUE(numArg("--bit=4", "--bit=", value, error));
    EXPECT_EQ(value, 4u);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(numArg("--bit=4294967296", "--bit=", value, error));
    EXPECT_EQ(value, 4u) << "a rejected value must leave the target alone";
    EXPECT_EQ(error,
              "bad --bit value '4294967296' (want an unsigned decimal "
              "number below 2^32)");
}

TEST(CliOptionsTest, MalformedSharedNumbersYieldStructuredErrors) {
    const CliOptions defaults;
    for (const char* flag : {"--seed", "--adpcm", "--g721", "--threads",
                             "--job-timeout", "--max-attempts"})
        for (const char* value :
             {"12abc", "", "-1", "+5", " 5", "99999999999999999999"}) {
            CliOptions options;
            std::string error;
            const std::string arg = std::string(flag) + "=" + value;
            EXPECT_TRUE(consumeSharedOption(arg, options, error)) << arg;
            EXPECT_NE(error.find(std::string("bad ") + flag + " value"),
                      error.npos)
                << arg << ": " << error;
            EXPECT_EQ(options.seed, defaults.seed) << arg;
            EXPECT_EQ(options.adpcmSamples, defaults.adpcmSamples) << arg;
            EXPECT_EQ(options.g721Samples, defaults.g721Samples) << arg;
            EXPECT_EQ(options.threads, defaults.threads) << arg;
            EXPECT_EQ(options.jobTimeoutMs, defaults.jobTimeoutMs) << arg;
            EXPECT_EQ(options.maxAttempts, defaults.maxAttempts) << arg;
        }
}

TEST(CliIoTest, ReadFileReturnsEveryByteAndNamesAMissingPath) {
    const std::string path = testing::TempDir() + "asbr_cli_io_read.bin";
    const std::string bytes("line one\n\0line two\r\n", 20);
    std::ofstream(path, std::ios::binary) << bytes;
    EXPECT_EQ(readFile(path), bytes);
    try {
        (void)readFile("/nonexistent/asbr_cli_io.txt");
        ADD_FAILURE() << "reading a missing file did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "cannot open '/nonexistent/asbr_cli_io.txt'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CliIoTest, WriteOutputChecksTheWriteItself) {
    const std::string path = testing::TempDir() + "asbr_cli_io_write.txt";
    writeOutput(path, "payload\n", "test payload");
    EXPECT_EQ(readFile(path), "payload\n");
    EXPECT_THROW(writeOutput("/nonexistent/dir/out.txt", "x", "test"),
                 std::runtime_error);
    if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full here";
    EXPECT_THROW(writeOutput("/dev/full", "x", "test"), std::runtime_error);
}

TEST(CliOptionsTest, SamplesAreCappedAtWorkloadCapacity) {
    CliOptions options;
    options.adpcmSamples = 1u << 30;
    EXPECT_EQ(samplesFor(options, BenchId::kAdpcmEncode),
              benchMaxSamples(BenchId::kAdpcmEncode));
}

TEST(EngineTest, UnknownPredictorTokenIsRethrownFromBatch) {
    SimEngine engine({.threads = 4});
    std::vector<SimJob> jobs = mixedBatch();
    jobs[2].predictor = "oracle";  // not a known token
    EXPECT_THROW((void)engine.run(jobs), std::exception);
}

TEST(EngineTest, RunRethrowsTheLastAttemptsError) {
    // Every G.721 attempt outlasts 1 ms of host time; with no journal to
    // quarantine into, the last attempt's error reaches the caller.
    SimJob job = tinyJob(BenchId::kG721Encode, "bimodal", false);
    job.samples = 2'000;
    const std::string expected = watchdogMessage("job", "wall-clock", 1, "ms");

    SimEngine serial({.threads = 1, .jobTimeoutMs = 1, .maxAttempts = 2});
    try {
        (void)serial.runOne(job);
        ADD_FAILURE() << "runOne returned despite the watchdog";
    } catch (const JobTimeoutError& e) {
        EXPECT_EQ(e.what(), expected);
    }

    SimEngine parallel({.threads = 4, .jobTimeoutMs = 1, .maxAttempts = 2});
    try {
        (void)parallel.run({job, job, job, job});
        ADD_FAILURE() << "run returned despite the watchdog";
    } catch (const JobTimeoutError& e) {
        EXPECT_EQ(e.what(), expected);
    }
}

TEST(EngineTest, PublishedCountersMatchStats) {
    SimEngine engine({.threads = 2});
    (void)engine.run({tinyJob(BenchId::kAdpcmEncode, "bimodal", false),
                      tinyJob(BenchId::kAdpcmEncode, "bi512", true)});
    const EngineStats stats = engine.stats();
    MetricRegistry registry;
    engine.publishMetrics(registry);
    ASSERT_NE(registry.findCounter("engine.jobs_run"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.jobs_run")->value(), stats.jobsRun);
    ASSERT_NE(registry.findCounter("engine.cache_hits"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.cache_hits")->value(),
              stats.cacheHits);
    ASSERT_NE(registry.findCounter("engine.worker_busy_cycles"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.worker_busy_cycles")->value(),
              stats.workerBusyCycles);
}

}  // namespace
