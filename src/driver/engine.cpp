#include "driver/engine.hpp"

#include <algorithm>
#include <chrono>
#include <compare>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "driver/cli.hpp"
#include "bp/bimodal.hpp"
#include "driver/deadline.hpp"
#include "driver/journal.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "report/fault_report.hpp"
#include "report/report.hpp"
#include "util/ensure.hpp"

namespace asbr::driver {

namespace {

bool raised(const std::atomic<bool>* flag) {
    return flag != nullptr && flag->load(std::memory_order_relaxed);
}

/// Where a cell's result is journaled, and its codec: the artifact's JSON
/// and back.  A default-constructed one (no journal) splices, records and
/// writes nothing.
template <typename Result>
struct CellJournal {
    JobJournal* journal = nullptr;
    JsonValue (*encode)(const Result&) = nullptr;
    Result (*decode)(const JsonValue&) = nullptr;
};

/// How one cell ended.
template <typename Result>
struct Cell {
    CellStatus status = CellStatus::kSkipped;
    std::uint64_t attempts = 0;
    bool resumed = false;       ///< spliced from the journal
    Result result{};            ///< kOk only
    std::string error;          ///< kFailed only: the last attempt's message
    std::exception_ptr thrown;  ///< the last attempt's exception, if one ran
};

/// The one attempt loop behind every engine entry point
/// (docs/robustness.md).  Takes cell `key` from its journal state to an
/// outcome: a digest-verified artifact is spliced and a quarantine stays
/// sticky; otherwise each attempt checks the interrupt flag, journals
/// `running`, runs `attempt` under a fresh Deadline, and on success journals
/// the artifact and then `done`, on failure `failed` and a back-off before
/// the next attempt.
template <typename Result, typename Attempt>
Cell<Result> runCell(const EngineConfig& config, const std::string& key,
                     const CellJournal<Result>& log,
                     const std::atomic<bool>* interrupted, Attempt&& attempt) {
    Cell<Result> cell;
    JobJournal* const journal = log.journal;
    const JournalEntry* prior =
        journal != nullptr ? journal->entry(key) : nullptr;
    if (prior != nullptr && prior->done) {
        if (const auto bytes = journal->readArtifact(prior->artifactPath,
                                                     prior->resultDigest)) {
            const JsonParseResult parsed = parseJson(*bytes);
            if (parsed.ok()) {
                cell.status = CellStatus::kOk;
                cell.attempts = prior->doneAttempt;
                cell.resumed = true;
                cell.result = log.decode(*parsed.value);
                return cell;
            }
        }
        // Missing/corrupt artifact: fall through and recompute.  Attempt
        // numbering is unaffected (the crash-free run's bytes must still
        // reproduce), and the fresh artifact overwrites the corrupt one.
    }

    const std::uint64_t maxAttempts =
        std::max<std::uint64_t>(1, config.maxAttempts);
    const std::uint64_t priorFailures =
        prior != nullptr ? prior->failedAttempts : 0;
    if (priorFailures >= maxAttempts) {
        // Quarantined in a previous process; stays quarantined on resume
        // unless --max-attempts was raised.
        cell.status = CellStatus::kFailed;
        cell.attempts = priorFailures;
        cell.error = prior->lastError;
        return cell;
    }

    for (std::uint64_t n = priorFailures + 1;; ++n) {
        if (raised(interrupted)) return cell;
        if (journal != nullptr) journal->recordStart(key, n);
        try {
            Deadline deadline(config.jobTimeoutMs, interrupted);
            cell.result = attempt(deadline);
            if (journal != nullptr) {
                const std::string bytes =
                    log.encode(cell.result).dump(2) + "\n";
                const std::string artifact = JobJournal::artifactPathFor(key);
                journal->writeArtifact(artifact, bytes);
                journal->recordDone(key, n, artifact, fnv1a64Hex(bytes));
            }
            cell.status = CellStatus::kOk;
            cell.attempts = n;
            return cell;
        } catch (const JobInterruptedError&) {
            // Deliberately no journal record: the attempt never concluded,
            // exactly like a crash — resume re-runs it with the same
            // attempt number and reproduces the uninterrupted bytes.
            cell.thrown = std::current_exception();
            return cell;
        } catch (const std::exception& e) {
            if (journal != nullptr) journal->recordFailed(key, n, e.what());
            if (n >= maxAttempts) {
                cell.status = CellStatus::kFailed;
                cell.attempts = n;
                cell.error = e.what();
                cell.thrown = std::current_exception();
                return cell;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffDelayMs(n + 1)));
        }
    }
}

/// The journal a durable batch of `cells` writes; null without a directory.
std::unique_ptr<JobJournal> openJournal(const DurablePolicy& policy,
                                        const std::string& gridDigest,
                                        std::uint64_t cells) {
    ASBR_ENSURE(!policy.resume || !policy.journalDir.empty(),
                "engine: resume requires a journal directory");
    if (policy.journalDir.empty()) return nullptr;
    return std::make_unique<JobJournal>(policy.journalDir, policy.resume,
                                        gridDigest, cells);
}

JsonValue sameJson(const JsonValue& value) { return value; }

/// Register every counter of `from` in `to`.
void addCounters(const MetricRegistry& from, MetricRegistry& to) {
    for (const MetricRegistry::Entry& entry : from.catalogue()) {
        ASBR_ENSURE(entry.kind == MetricRegistry::Entry::Kind::kCounter,
                    "engine: a predictor published a non-counter metric");
        to.counter(entry.name, entry.help)
            .add(from.findCounter(entry.name)->value());
    }
}

}  // namespace

/// What a cell's simulation depends on: its machine.  Cells with equal keys
/// simulate identical machines.  The BIT's capacity is not part of it: a
/// lookup matches PCs, so the capacity only bounds what the selection may
/// load, and prices the storage, which each cell reports for itself.  On
/// one workload's program the BIT and static-fold entries are functions of
/// their PCs (and directions).
struct SimEngine::MachineKey {
    WorkloadKey workload;
    std::string predictor;  ///< the job's registry token
    bool sampled = false;
    SamplingConfig sampling{};
    bool sampleReference = false;
    bool asbr = false;
    ValueStage updateStage = ValueStage::kMemEnd;
    bool parityProtected = false;
    std::vector<std::uint32_t> bitPcs;  ///< bank 0, in load order
    std::vector<std::pair<std::uint32_t, bool>> staticFolds;  ///< pc, taken

    MachineKey(const SimJob& job, const WorkloadKey& workloadKey,
               const SelectionArtifacts* selection)
        : workload(workloadKey), predictor(job.predictor) {
        if (job.sampled) {
            sampled = true;
            sampling = job.sampling;
            sampleReference = job.sampleReference;
        }
        if (selection != nullptr) {
            asbr = true;
            updateStage = job.updateStage;
            parityProtected = job.parityProtected;
            for (const BranchInfo& info : selection->branchInfos())
                bitPcs.push_back(info.pc);
            for (const StaticFoldCandidate& fold :
                 selection->staticCandidates())
                staticFolds.emplace_back(fold.pc, fold.taken);
        }
    }

    auto operator<=>(const MachineKey&) const = default;
};

/// What one simulation leaves for every cell of its machine: the outcome,
/// and no live hardware (predictor, unit or memory image).
struct SimEngine::MachineRun {
    PipelineStats stats;
    std::shared_ptr<const SampledResult> sampled;
    bool hasReference = false;
    std::uint64_t referenceCycles = 0;
    std::uint64_t referenceCommitted = 0;
    AsbrStats unitStats;
    std::string predictorName;
    std::string predictorToken;
    std::uint64_t predictorStorageBits = 0;
    MetricRegistry predictorMetrics;  ///< what the predictor published
};

SimEngine::SimEngine(EngineConfig config) : config_(config) {}

EngineConfig engineConfigFor(const CliOptions& options) {
    EngineConfig config;
    config.threads = options.threads;
    config.jobTimeoutMs = options.jobTimeoutMs;
    config.maxAttempts = options.maxAttempts;
    return config;
}

WorkloadKey SimEngine::workloadKeyFor(const SimJob& job) const {
    WorkloadKey key;
    key.workload = job.workload;
    key.scheduled = job.scheduled;
    key.seed = job.seed;
    const std::size_t capacity = benchMaxSamples(job.workload);
    key.samples =
        job.samples == 0 ? capacity : std::min(job.samples, capacity);
    return key;
}

SelectionKey SimEngine::selectionKeyFor(const SimJob& job) const {
    SelectionKey key;
    key.workload = workloadKeyFor(job);
    key.bitEntries =
        job.bitEntries != 0 ? job.bitEntries : paperBitEntries(job.workload);
    key.updateStage = job.updateStage;
    key.useAccuracy = job.accuracyRef;
    key.staticFolds = job.staticFolds;
    key.predictorAware = job.predictorAware;
    if (job.predictorAware) key.predictorToken = job.predictor;
    return key;
}

std::shared_ptr<const WorkloadArtifacts> SimEngine::workloadFor(
    const SimJob& job) {
    auto workload = cache_.workload(workloadKeyFor(job));
    // Name the reference profiles this job's selection reads, so that the
    // workload's profile walk replays them (SelectionArtifacts reads
    // "bimodal" when selectionKeyFor sets useAccuracy or predictorAware).
    if (job.asbr && (job.accuracyRef || job.predictorAware))
        workload->registerPrediction("bimodal");
    if (job.asbr && job.predictorAware)
        workload->registerPrediction(job.predictor);
    return workload;
}

std::shared_ptr<const SelectionArtifacts> SimEngine::selectionFor(
    const SimJob& job) {
    return cache_.selection(selectionKeyFor(job));
}

std::string SimEngine::jobKey(const SimJob& job) const {
    const WorkloadKey w = workloadKeyFor(job);
    std::string key = benchToken(job.workload);
    key += "-s" + std::to_string(w.seed);
    key += "-n" + std::to_string(w.samples);
    if (w.scheduled) key += "-sched";
    // Parameterized registry tokens contain ':' (e.g. "tage:h8-16"); keys
    // double as journal artifact paths, so map it to the fs-safe '+'.
    key += "-";
    for (const char c : job.predictor) key.push_back(c == ':' ? '+' : c);
    if (job.asbr) {
        const SelectionKey s = selectionKeyFor(job);
        key += "-asbr-bit" + std::to_string(s.bitEntries);
        key += "-";
        key += valueStageName(s.updateStage);
        if (job.parityProtected) key += "-pp";
        if (s.staticFolds) key += "-sf";
        if (s.predictorAware) key += "-pa";
        if (!s.useAccuracy) key += "-noacc";
    } else {
        key += "-base";
    }
    if (job.sampled) {
        key += "-sample" + std::to_string(job.sampling.warmup) + "x" +
               std::to_string(job.sampling.measure) + "x" +
               std::to_string(job.sampling.skip);
        if (job.sampleReference) key += "-ref";
    }
    // The figure label lands in the report meta, so two keys that differ
    // only by figure must not alias (sanitized: keys are fs-safe).
    if (!job.figure.empty()) {
        key += "-f";
        for (const char c : job.figure) {
            const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.';
            key.push_back(ok ? c : '_');
        }
    }
    return key;
}

std::string SimEngine::manifestDigest(const std::vector<SimJob>& jobs) const {
    std::string all;
    for (const SimJob& job : jobs) {
        all += jobKey(job);
        all += '\n';
    }
    return fnv1a64Hex(all);
}

std::string SimEngine::campaignManifestDigest(
    const SimJob& job, const CampaignConfig& campaign) const {
    std::string all = jobKey(job);
    all += "|campaign|seed=" + std::to_string(campaign.seed);
    all += "|injections=" + std::to_string(campaign.injections);
    all += "|bdt=" + std::to_string(campaign.faultBdt);
    all += "|bit=" + std::to_string(campaign.faultBit);
    all += "|bp=" + std::to_string(campaign.faultBp);
    all += "|mcf=" + std::to_string(campaign.maxCycleFactor);
    return fnv1a64Hex(all);
}

JobResult SimEngine::execute(const SimJob& job, Deadline& deadline,
                             RunMemo* memo) {
    const WorkloadKey workloadKey = workloadKeyFor(job);
    const auto workload = workloadFor(job);
    std::string predictorError;
    auto predictor = makePredictorByToken(job.predictor, &predictorError);
    ASBR_ENSURE(predictor != nullptr, "engine: " + predictorError);

    std::shared_ptr<const SelectionArtifacts> selection;
    std::unique_ptr<AsbrUnit> unit;
    if (job.asbr) {
        // The first ASBR job on a workload runs its profile walk here and
        // checks its deadline during the walk, as for the fast-forward log
        // below; the selection then reads the walk's profiles.
        (void)workload->profile([&deadline] { deadline.check(); });
        selection = cache_.selection(selectionKeyFor(job));
        unit = selection->makeUnit(job.parityProtected);
    }

    JobResult out;
    PipelineConfig pipelineConfig;
    if (job.trace) {
        out.tracer = std::make_shared<Tracer>(job.traceConfig);
        pipelineConfig.tracer = out.tracer.get();
    }
    // The pipeline polls the deadline once every kWalkPollInterval cycles.
    pipelineConfig.poll = [&deadline] { deadline.check(); };

    // This cell's machine, simulated on the cell's own predictor and unit.
    const auto simulate = [&] {
        auto run = std::make_shared<MachineRun>();
        if (job.sampled) {
            // The first sampled job of a (workload, geometry) records the
            // shared log here, so its simSeconds carries the walk, and
            // checks its deadline during the walk as the pipeline's poll
            // does.  A job waiting on another job's walk is bounded by
            // that job's deadline: an abandoned walk is not kept, and its
            // waiters record the log again under their own.
            const auto log = workload->fastForwardLog(
                job.sampling, [&deadline] { deadline.check(); });
            auto sampled = std::make_shared<const SampledResult>(
                runSampledPipeline(workload->prepared(), *predictor,
                                   unit.get(), *log, pipelineConfig));
            jobsRun_.fetch_add(1, std::memory_order_relaxed);
            busyCycles_.fetch_add(sampled->measuredCycles,
                                  std::memory_order_relaxed);
            run->stats = sampled->stats;
            run->sampled = std::move(sampled);
            if (job.sampleReference) {
                // The full cycle-accurate reference runs on fresh hardware
                // state (the sampled run's predictor/unit are already
                // warm-polluted).
                auto refPredictor = makePredictorByToken(job.predictor);
                std::unique_ptr<AsbrUnit> refUnit;
                if (selection != nullptr)
                    refUnit = selection->makeUnit(job.parityProtected);
                const PipelineResult ref =
                    runPipeline(workload->prepared(), *refPredictor,
                                refUnit.get(), pipelineConfig);
                jobsRun_.fetch_add(1, std::memory_order_relaxed);
                busyCycles_.fetch_add(ref.stats.cycles,
                                      std::memory_order_relaxed);
                run->hasReference = true;
                run->referenceCycles = ref.stats.cycles;
                run->referenceCommitted = ref.stats.committed;
            }
        } else {
            PipelineResult result = runPipeline(
                workload->prepared(), *predictor, unit.get(), pipelineConfig);
            jobsRun_.fetch_add(1, std::memory_order_relaxed);
            busyCycles_.fetch_add(result.stats.cycles,
                                  std::memory_order_relaxed);
            run->stats = std::move(result.stats);
        }
        if (unit != nullptr) run->unitStats = unit->stats();
        run->predictorName = predictor->name();
        run->predictorToken = predictor->token();
        run->predictorStorageBits = predictor->storageBits();
        predictor->publishMetrics(run->predictorMetrics);
        return std::shared_ptr<const MachineRun>(std::move(run));
    };

    const auto simStart = std::chrono::steady_clock::now();
    std::shared_ptr<const MachineRun> run;
    if (memo == nullptr || job.trace) {
        // Alone, or traced: a traced job owns its tracer, so it never shares.
        run = simulate();
    } else {
        // A twin of a cell already simulating waits for its run; if that
        // run fails, the twin simulates under its own deadline.
        bool simulated = false;
        run = memo->get(MachineKey(job, workloadKey, selection.get()), [&] {
            simulated = true;
            return simulate();
        });
        if (!simulated) jobsShared_.fetch_add(1, std::memory_order_relaxed);
    }
    out.simSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      simStart)
            .count();

    RunMeta meta;
    meta.benchmark = benchName(job.workload);
    meta.predictor = run->predictorName;
    meta.predictorToken = run->predictorToken;
    meta.figure = job.figure;
    meta.seed = job.seed;
    meta.samples = workloadKey.samples;
    meta.scheduled = job.scheduled;
    if (unit != nullptr) {
        meta.asbr = true;
        meta.bitEntries = unit->config().bitCapacity;
        meta.updateStage = valueStageName(unit->config().updateStage);
        meta.predictorAware = job.predictorAware;
    }

    // Every cell builds its report from its own meta, unit and selection
    // plus the run, so a twin's report is the one it would get alone.
    out.stats = run->stats;
    out.report = makeSimReport(std::move(meta), run->stats, nullptr);
    addCounters(run->predictorMetrics, out.report.registry);
    out.predictorStorageBits = run->predictorStorageBits;
    out.sampled = run->sampled;
    if (out.sampled != nullptr) out.sampled->publish(out.report.registry);
    out.hasReference = run->hasReference;
    out.referenceCycles = run->referenceCycles;
    out.referenceCommitted = run->referenceCommitted;
    if (unit != nullptr) {
        run->unitStats.publish(out.report.registry);
        unit->publishCostMetrics(out.report.registry);
        out.asbr = true;
        out.candidates = selection->candidates();
        out.staticFoldCount = selection->staticCandidates().size();
        out.bitSlotsReclaimed = selection->bitSlotsReclaimed();
        out.unitStats = run->unitStats;
        out.unitStorageBits = unit->storageBits();
        if (job.predictorAware)
            selection->awareMetrics().publish(out.report.registry);
    }
    return out;
}

JobResult SimEngine::runJob(const SimJob& job, RunMemo* memo) {
    Cell<JobResult> cell = runCell<JobResult>(
        config_, {}, {}, nullptr,
        [&](Deadline& deadline) { return execute(job, deadline, memo); });
    if (cell.status != CellStatus::kOk) std::rethrow_exception(cell.thrown);
    return std::move(cell.result);
}

JobResult SimEngine::runOne(const SimJob& job) { return runJob(job, nullptr); }

std::vector<JobResult> SimEngine::run(const std::vector<SimJob>& jobs) {
    std::vector<JobResult> results(jobs.size());
    RunMemo memo;
    parallelFor(jobs.size(), config_.threads,
                [&](std::size_t i) { results[i] = runJob(jobs[i], &memo); });
    return results;
}

DurableRunResult SimEngine::runDurable(const std::vector<SimJob>& jobs,
                                       const DurablePolicy& policy) {
    const auto journal = openJournal(policy, manifestDigest(jobs), jobs.size());
    const CellJournal<JsonValue> log{journal.get(), sameJson, sameJson};
    DurableRunResult out;
    out.cells.resize(jobs.size());
    // Cells with equal keys produce equal reports (a sweep whose BIT sizes
    // resolve to one capacity repeats its cells), so each distinct key runs
    // once and every cell with that key gets the one outcome: no two workers
    // write the same journal artifact.
    std::map<std::string, std::size_t> firstCell;
    std::vector<std::size_t> distinct;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        out.cells[i].key = jobKey(jobs[i]);
        if (firstCell.try_emplace(out.cells[i].key, i).second)
            distinct.push_back(i);
    }
    RunMemo memo;
    parallelFor(distinct.size(), config_.threads, [&](std::size_t k) {
        const std::size_t i = distinct[k];
        CellOutcome& outcome = out.cells[i];
        Cell<JsonValue> cell = runCell(
            config_, outcome.key, log, policy.interrupted,
            [&](Deadline& deadline) {
                return simReportJson(execute(jobs[i], deadline, &memo).report);
            });
        outcome.status = cell.status;
        outcome.attempts = cell.attempts;
        outcome.resumed = cell.resumed;
        outcome.report = std::move(cell.result);
        outcome.error = std::move(cell.error);
    });
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t first = firstCell.at(out.cells[i].key);
        if (first == i) continue;
        out.cells[i] = out.cells[first];
        if (out.cells[i].status == CellStatus::kOk && !out.cells[i].resumed)
            jobsShared_.fetch_add(1, std::memory_order_relaxed);
    }
    for (const CellOutcome& cell : out.cells)
        if (cell.resumed) ++out.resumedJobs;
    jobsResumed_.fetch_add(out.resumedJobs, std::memory_order_relaxed);
    out.interrupted =
        out.countWith(CellStatus::kSkipped) > 0 || raised(policy.interrupted);
    return out;
}

FaultRunFactory SimEngine::faultFactory(const SimJob& job) {
    ASBR_ENSURE(job.asbr, "engine: fault campaigns require an ASBR job");
    const auto workload = workloadFor(job);
    const auto selection = selectionFor(job);
    const std::string token = job.predictor;
    const bool parityProtected = job.parityProtected;
    return [workload, selection, token, parityProtected] {
        FaultRun run;
        run.program = &workload->prepared().program;
        run.memory = makeMemory(workload->prepared());
        auto predictor = makePredictorByToken(token);
        ASBR_ENSURE(predictor != nullptr,
                    "engine: unknown predictor token '" + token + "'");
        run.bimodalTarget = dynamic_cast<BimodalPredictor*>(predictor.get());
        run.predictor = std::move(predictor);
        run.unit = selection->makeUnit(parityProtected);
        return run;
    };
}

DurableCampaignResult SimEngine::runCampaignDurable(
    const SimJob& job, const CampaignConfig& campaign,
    const DurablePolicy& policy) {
    const FaultRunFactory factory = faultFactory(job);
    DurableCampaignResult out;
    // Sample every injection up front in the serial campaign's RNG order,
    // then execute in parallel: the records land in sampling order, so the
    // merged result is bit-identical to the serial loop at any thread count.
    out.result.context = computeContext(factory);
    const std::vector<Injection> injections =
        sampleInjections(campaignSiteClasses(factory, campaign), campaign,
                         out.result.context.cleanCycles);
    const auto journal = openJournal(
        policy, campaignManifestDigest(job, campaign), injections.size());
    const CellJournal<InjectionRecord> log{
        journal.get(), injectionRecordJson, injectionRecordFromJson};

    std::vector<Cell<InjectionRecord>> cells(injections.size());
    parallelFor(injections.size(), config_.threads, [&](std::size_t i) {
        cells[i] = runCell(
            config_, "inj" + std::to_string(i), log, policy.interrupted,
            [&](Deadline& deadline) {
                InjectionRecord record = runInjection(
                    factory, injections[i], out.result.context,
                    campaign.maxCycleFactor,
                    [&deadline] { deadline.check(); });
                jobsRun_.fetch_add(1, std::memory_order_relaxed);
                busyCycles_.fetch_add(record.cycles,
                                      std::memory_order_relaxed);
                return record;
            });
    });

    for (std::size_t i = 0; i < injections.size(); ++i) {
        Cell<InjectionRecord>& cell = cells[i];
        if (cell.resumed) ++out.resumedJobs;
        if (cell.status == CellStatus::kOk) {
            ++out.result.outcomes[static_cast<std::size_t>(
                cell.result.outcome)];
            out.result.records.push_back(std::move(cell.result));
        } else if (cell.status == CellStatus::kFailed) {
            out.failed.push_back(
                {i, injections[i], cell.attempts, std::move(cell.error)});
        } else {
            out.interrupted = true;
        }
    }
    jobsResumed_.fetch_add(out.resumedJobs, std::memory_order_relaxed);
    out.interrupted = out.interrupted || raised(policy.interrupted);
    return out;
}

InjectionRecord SimEngine::replayInjection(const SimJob& job,
                                           const Injection& injection,
                                           std::uint64_t maxCycleFactor) {
    const FaultRunFactory factory = faultFactory(job);
    InjectionRecord record = runInjection(factory, injection,
                                          computeContext(factory),
                                          maxCycleFactor);
    jobsRun_.fetch_add(1, std::memory_order_relaxed);
    busyCycles_.fetch_add(record.cycles, std::memory_order_relaxed);
    return record;
}

EngineStats SimEngine::stats() const {
    EngineStats stats;
    stats.jobsRun = jobsRun_.load(std::memory_order_relaxed);
    stats.jobsShared = jobsShared_.load(std::memory_order_relaxed);
    stats.cacheHits = cache_.stats().hits;
    stats.workerBusyCycles = busyCycles_.load(std::memory_order_relaxed);
    stats.jobsResumed = jobsResumed_.load(std::memory_order_relaxed);
    return stats;
}

void SimEngine::publishMetrics(MetricRegistry& registry) const {
    const EngineStats s = stats();
    registry
        .counter("engine.jobs_run",
                 "pipeline simulations the engine executed (one per distinct "
                 "machine of a batch, plus fault injections)")
        .set(s.jobsRun);
    registry
        .counter("engine.jobs_shared",
                 "batch cells served by another cell's simulation of the "
                 "same machine instead of simulating")
        .set(s.jobsShared);
    registry
        .counter("engine.cache_hits",
                 "artifact-cache requests served from an already-resolved "
                 "key")
        .set(s.cacheHits);
    registry
        .counter("engine.worker_busy_cycles",
                 "simulated cycles executed by engine workers (not host "
                 "time)")
        .set(s.workerBusyCycles);
    registry
        .counter("engine.jobs_resumed",
                 "durable jobs satisfied from a journal artifact instead of "
                 "re-simulating")
        .set(s.jobsResumed);
}

}  // namespace asbr::driver
