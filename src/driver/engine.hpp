// SimEngine — the one execution path every simulation consumer drives.
//
// The engine resolves declarative SimJobs against a shared ArtifactCache
// (load/profile/select once per key, simulate many times) and executes job
// batches on a fixed-size worker pool.  Results land in pre-sized slots
// keyed by submission index, so a batch's output is byte-identical whether
// it ran on 1 thread or 8 — the property ci/bench-report.sh, ci/faults.sh
// and the determinism tests pin down by diffing JSON across thread counts.
//
// Batch jobs, sweep cells and fault injections all run through one attempt
// loop (runCell in engine.cpp).  EngineConfig sets its watchdog and retry
// budget; DurablePolicy adds only the journal and the interrupt flag.
//
// Within one batch (run, runDurable) each distinct *machine* simulates once:
// cells whose workload, predictor, sampling and ASBR tables are equal —
// twins, such as two BIT sizes that hold the same branches — share one run
// through a memo that dies with the batch, and each builds its own report
// from that run, byte-identical to the report it would get alone.
//
// Observability is injection-scoped: each job gets its own MetricRegistry
// (inside its SimReport) and, when tracing, its own Tracer instance.  The
// engine itself keeps five counters (engine.jobs_run, engine.jobs_shared,
// engine.cache_hits, engine.worker_busy_cycles, engine.jobs_resumed) that
// callers publish into a registry of their choosing; all five are
// deterministic functions of the submitted work and the journal —
// worker_busy_cycles counts *simulated* cycles, never host time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/artifacts.hpp"
#include "driver/job.hpp"
#include "fault/campaign.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace asbr::driver {

class Deadline;
struct CliOptions;

struct EngineConfig {
    /// Worker threads for batch/campaign execution (0 = hardware
    /// concurrency).  1 runs everything inline on the calling thread.
    std::size_t threads = 1;
    /// Per-attempt wall-clock watchdog in milliseconds (0 = off).  Exceeding
    /// it throws JobTimeoutError — host time never lands in results.
    std::uint64_t jobTimeoutMs = 0;
    /// Attempts per job or injection before runOne/run rethrow the last
    /// failure and the durable entry points quarantine the cell.  Attempt
    /// N > 1 first sleeps backoffDelayMs(N).
    std::uint64_t maxAttempts = 1;
};

/// EngineConfig from the shared CLI options (--threads/--job-timeout/
/// --max-attempts); defined in engine.cpp so cli.hpp stays driver-light.
[[nodiscard]] EngineConfig engineConfigFor(const CliOptions& options);

/// Deterministic engine counters (see publishMetrics).
struct EngineStats {
    std::uint64_t jobsRun = 0;     ///< simulations executed
    std::uint64_t jobsShared = 0;  ///< cells served by another cell's run
    std::uint64_t cacheHits = 0;
    std::uint64_t workerBusyCycles = 0;
    std::uint64_t jobsResumed = 0;  ///< results spliced from a journal
};

/// Journal and interrupt flag for runDurable/runCampaignDurable
/// (docs/robustness.md); the watchdog and retry budget come from
/// EngineConfig.  An empty journalDir runs without persistence — failed
/// cells still quarantine instead of aborting, so tools use one code path
/// whether or not --journal was given.
struct DurablePolicy {
    std::string journalDir;  ///< write-ahead journal directory; empty = none
    bool resume = false;     ///< resume an existing journal (requires dir)
    /// Cooperative interrupt flag (SIGINT/SIGTERM handler sets it): pending
    /// jobs are skipped, the in-flight attempt aborts without a journal
    /// record, and the caller exits after the journal is checkpointed.
    const std::atomic<bool>* interrupted = nullptr;
};

enum class CellStatus : std::uint8_t {
    kOk = 0,       ///< simulated (or resumed) successfully
    kFailed = 1,   ///< quarantined after maxAttempts failed attempts
    kSkipped = 2,  ///< never ran — interrupt arrived first
};

/// One grid cell's durable outcome.  `report` holds the job's serialized
/// asbr.sim_report document — resumed cells carry the parsed artifact, and
/// the JSON writer's round-trip-stable number formatting guarantees both
/// spellings dump to identical bytes.
struct CellOutcome {
    std::string key;
    CellStatus status = CellStatus::kSkipped;
    std::uint64_t attempts = 0;
    bool resumed = false;  ///< satisfied from the journal, not simulated
    JsonValue report;      ///< kOk only
    std::string error;     ///< kFailed only: last attempt's failure
};

struct DurableRunResult {
    std::vector<CellOutcome> cells;  ///< submission order
    std::uint64_t resumedJobs = 0;
    bool interrupted = false;  ///< any cell skipped / interrupt flag raised

    [[nodiscard]] std::uint64_t countWith(CellStatus status) const {
        std::uint64_t n = 0;
        for (const CellOutcome& cell : cells)
            if (cell.status == status) ++n;
        return n;
    }
};

struct DurableCampaignResult {
    CampaignResult result;  ///< completed records in sampling order
    std::vector<FailedInjection> failed;  ///< quarantined, by sampling index
    std::uint64_t resumedJobs = 0;
    bool interrupted = false;
};

class SimEngine {
public:
    explicit SimEngine(EngineConfig config = {});

    [[nodiscard]] const EngineConfig& config() const { return config_; }

    /// Cache keys a job resolves to (exposed for tests and diagnostics).
    [[nodiscard]] WorkloadKey workloadKeyFor(const SimJob& job) const;
    [[nodiscard]] SelectionKey selectionKeyFor(const SimJob& job) const;

    /// Resolve (and cache) a job's artifacts without simulating.
    /// workloadFor also registers the reference tokens the job's selection
    /// reads, so that the workload's one profile walk replays them.
    [[nodiscard]] std::shared_ptr<const WorkloadArtifacts> workloadFor(
        const SimJob& job);
    [[nodiscard]] std::shared_ptr<const SelectionArtifacts> selectionFor(
        const SimJob& job);

    /// Run one job on the calling thread; rethrows its last attempt's error.
    [[nodiscard]] JobResult runOne(const SimJob& job);

    /// Run a batch on the worker pool; results are in submission order.
    /// Cells that simulate the same machine share one run (see above).  The
    /// first job exception (e.g. an unknown predictor token) is rethrown
    /// after the batch drains.
    [[nodiscard]] std::vector<JobResult> run(const std::vector<SimJob>& jobs);

    /// Stable identity of a job's resolved configuration — the journal key.
    /// Two jobs with the same key produce byte-identical sim reports.
    [[nodiscard]] std::string jobKey(const SimJob& job) const;

    /// Digest pinning a job batch (or campaign) to one journal; the journal
    /// manifest refuses to resume a different grid.
    [[nodiscard]] std::string manifestDigest(
        const std::vector<SimJob>& jobs) const;
    [[nodiscard]] std::string campaignManifestDigest(
        const SimJob& job, const CampaignConfig& campaign) const;

    /// Durable batch execution (docs/robustness.md): write-ahead journal,
    /// resume, and quarantine instead of abort on top of the watchdog and
    /// retry every job gets.  Cell order is submission order; a resumed run
    /// splices journal artifacts and serializes byte-identically to the
    /// uninterrupted run at any thread count.  Each distinct job key runs
    /// once, and every cell with that key gets its outcome; cells with
    /// distinct keys share runs as in run(), and each journals its own
    /// artifact.
    [[nodiscard]] DurableRunResult runDurable(const std::vector<SimJob>& jobs,
                                              const DurablePolicy& policy);

    /// Durable fault campaign, byte-identical to the serial asbr::runCampaign
    /// at any thread count.  The golden context is recomputed on every
    /// (re)start — it is deterministic and cheap relative to the grid —
    /// while each injection is journaled and resumed individually.
    [[nodiscard]] DurableCampaignResult runCampaignDurable(
        const SimJob& job, const CampaignConfig& campaign,
        const DurablePolicy& policy);

    /// Build the FaultRunFactory for an ASBR job — every FaultRun it returns
    /// is freshly constructed from cached immutable artifacts, so it is safe
    /// to call from concurrent workers.
    [[nodiscard]] FaultRunFactory faultFactory(const SimJob& job);

    /// Re-run one recorded injection (asbr-faults replay).
    [[nodiscard]] InjectionRecord replayInjection(const SimJob& job,
                                                  const Injection& injection,
                                                  std::uint64_t maxCycleFactor);

    [[nodiscard]] EngineStats stats() const;
    [[nodiscard]] ArtifactCache::Stats cacheStats() const {
        return cache_.stats();
    }

    /// Publish engine.jobs_run / engine.jobs_shared / engine.cache_hits /
    /// engine.worker_busy_cycles / engine.jobs_resumed into `registry`.  A
    /// default-constructed engine publishes zeros — the `asbr-stats
    /// counters` catalogue uses that to enumerate the names.
    void publishMetrics(MetricRegistry& registry) const;

private:
    /// What a cell's simulation depends on, and what it leaves (engine.cpp).
    struct MachineKey;
    struct MachineRun;
    /// A batch's runs, once per machine.
    using RunMemo = OncePerKey<MachineKey, MachineRun>;

    /// runOne on a batch's memo (null: simulate alone).
    [[nodiscard]] JobResult runJob(const SimJob& job, RunMemo* memo);
    [[nodiscard]] JobResult execute(const SimJob& job, Deadline& deadline,
                                    RunMemo* memo);

    EngineConfig config_;
    ArtifactCache cache_;
    std::atomic<std::uint64_t> jobsRun_{0};
    std::atomic<std::uint64_t> jobsShared_{0};
    std::atomic<std::uint64_t> busyCycles_{0};
    std::atomic<std::uint64_t> jobsResumed_{0};
};

}  // namespace asbr::driver
