#include "driver/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
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
    return cache_.workload(workloadKeyFor(job));
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

JobResult SimEngine::execute(const SimJob& job, Deadline* deadline) {
    const WorkloadKey workloadKey = workloadKeyFor(job);
    const auto workload = cache_.workload(workloadKey);
    std::string predictorError;
    auto predictor = makePredictorByToken(job.predictor, &predictorError);
    ASBR_ENSURE(predictor != nullptr, "engine: " + predictorError);

    std::shared_ptr<const SelectionArtifacts> selection;
    std::unique_ptr<AsbrUnit> unit;
    if (job.asbr) {
        selection = cache_.selection(selectionKeyFor(job));
        unit = selection->makeUnit(job.parityProtected);
    }

    JobResult out;
    PipelineConfig pipelineConfig;
    if (job.trace) {
        out.tracer = std::make_shared<Tracer>(job.traceConfig);
        pipelineConfig.tracer = out.tracer.get();
    }
    // The wall-clock watchdog rides the cycle-hook seam; an inert deadline
    // is never installed, so un-watched runs keep a null cycleHook.
    if (deadline != nullptr && deadline->active())
        pipelineConfig.cycleHook = deadline;

    const auto simStart = std::chrono::steady_clock::now();
    PipelineStats runStats;
    if (job.sampled) {
        // The first sampled job of a (workload, geometry) records the shared
        // log here, so its simSeconds carries the walk, and checks its
        // deadline during the walk as the pipeline's cycle hook would.  A
        // job waiting on another job's walk is bounded by that job's
        // deadline: an abandoned walk fails its waiters too, and their
        // retries record the log again.
        const auto log = workload->fastForwardLog(job.sampling, [deadline] {
            if (deadline != nullptr) deadline->check();
        });
        auto sampled = std::make_shared<SampledResult>(
            runSampledPipeline(workload->prepared(), *predictor, unit.get(),
                               *log, pipelineConfig));
        jobsRun_.fetch_add(1, std::memory_order_relaxed);
        busyCycles_.fetch_add(sampled->measuredCycles,
                              std::memory_order_relaxed);
        runStats = sampled->stats;
        out.sampled = std::move(sampled);
        if (job.sampleReference) {
            // The full cycle-accurate reference runs on fresh hardware state
            // (the sampled run's predictor/unit are already warm-polluted).
            auto refPredictor = makePredictorByToken(job.predictor);
            std::unique_ptr<AsbrUnit> refUnit;
            if (selection != nullptr)
                refUnit = selection->makeUnit(job.parityProtected);
            const PipelineResult ref =
                runPipeline(workload->prepared(), *refPredictor, refUnit.get(),
                            pipelineConfig);
            jobsRun_.fetch_add(1, std::memory_order_relaxed);
            busyCycles_.fetch_add(ref.stats.cycles, std::memory_order_relaxed);
            out.hasReference = true;
            out.referenceCycles = ref.stats.cycles;
            out.referenceCommitted = ref.stats.committed;
        }
    } else {
        const PipelineResult result = runPipeline(
            workload->prepared(), *predictor, unit.get(), pipelineConfig);
        jobsRun_.fetch_add(1, std::memory_order_relaxed);
        busyCycles_.fetch_add(result.stats.cycles, std::memory_order_relaxed);
        runStats = result.stats;
    }
    out.simSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      simStart)
            .count();

    RunMeta meta;
    meta.benchmark = benchName(job.workload);
    meta.predictor = predictor->name();
    meta.predictorToken = predictor->token();
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

    out.stats = runStats;
    out.report =
        makeSimReport(std::move(meta), runStats, predictor.get(), unit.get());
    if (out.sampled != nullptr) out.sampled->publish(out.report.registry);
    if (unit != nullptr) {
        out.asbr = true;
        out.candidates = selection->candidates();
        out.staticFoldCount = selection->staticCandidates().size();
        out.bitSlotsReclaimed = selection->bitSlotsReclaimed();
        out.unitStats = unit->stats();
        out.unitStorageBits = unit->storageBits();
        if (job.predictorAware) {
            const PredictorAwareSelectionMetrics& aware =
                selection->awareMetrics();
            out.predictorAware = true;
            out.awareHardSites = aware.hardSites;
            out.awareKeptForPredictor = aware.keptForPredictor;
            out.awareReclaimedSlots = aware.reclaimedSlots;
            aware.publish(out.report.registry);
        }
    }
    out.predictorStorageBits = predictor->storageBits();
    return out;
}

JobResult SimEngine::executeWithRetry(const SimJob& job) {
    const std::uint64_t maxAttempts =
        std::max<std::uint64_t>(1, config_.maxAttempts);
    for (std::uint64_t attempt = 1;; ++attempt) {
        try {
            Deadline deadline(config_.jobTimeoutMs);
            return execute(job, &deadline);
        } catch (const JobInterruptedError&) {
            throw;  // a checkpoint request is not a retryable failure
        } catch (const std::exception&) {
            if (attempt >= maxAttempts) throw;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffDelayMs(attempt + 1)));
        }
    }
}

JobResult SimEngine::runOne(const SimJob& job) {
    return executeWithRetry(job);
}

std::vector<JobResult> SimEngine::run(const std::vector<SimJob>& jobs) {
    std::vector<JobResult> results(jobs.size());
    parallelFor(jobs.size(), config_.threads,
                [&](std::size_t i) { results[i] = executeWithRetry(jobs[i]); });
    return results;
}

CellOutcome SimEngine::runDurableOne(const SimJob& job,
                                     const DurablePolicy& policy,
                                     JobJournal* journal) {
    CellOutcome cell;
    cell.key = jobKey(job);

    const JournalEntry* prior =
        journal != nullptr ? journal->entry(cell.key) : nullptr;
    const std::uint64_t priorFailures =
        prior != nullptr ? prior->failedAttempts : 0;
    if (prior != nullptr && prior->done) {
        if (const auto bytes =
                journal->readArtifact(prior->artifactPath, prior->resultDigest)) {
            const JsonParseResult parsed = parseJson(*bytes);
            if (parsed.ok()) {
                cell.status = CellStatus::kOk;
                cell.attempts = prior->doneAttempt;
                cell.resumed = true;
                cell.report = *parsed.value;
                jobsResumed_.fetch_add(1, std::memory_order_relaxed);
                return cell;
            }
        }
        // Missing/corrupt artifact: fall through and recompute.  Attempt
        // numbering is unaffected (the crash-free run's bytes must still
        // reproduce), and the fresh artifact overwrites the corrupt one.
    }

    const std::uint64_t maxAttempts =
        std::max<std::uint64_t>(1, policy.maxAttempts);
    if (priorFailures >= maxAttempts) {
        // Quarantined in a previous process; stays quarantined on resume
        // unless --max-attempts was raised.
        cell.status = CellStatus::kFailed;
        cell.attempts = priorFailures;
        cell.error = prior->lastError;
        return cell;
    }

    for (std::uint64_t attempt = priorFailures + 1;; ++attempt) {
        if (policy.interrupted != nullptr &&
            policy.interrupted->load(std::memory_order_relaxed)) {
            cell.status = CellStatus::kSkipped;
            return cell;
        }
        if (journal != nullptr) journal->recordStart(cell.key, attempt);
        try {
            Deadline deadline(policy.jobTimeoutMs, policy.interrupted);
            const JobResult result = execute(job, &deadline);
            cell.report = simReportJson(result.report);
            if (journal != nullptr) {
                const std::string bytes = cell.report.dump(2) + "\n";
                const std::string artifact =
                    JobJournal::artifactPathFor(cell.key);
                journal->writeArtifact(artifact, bytes);
                journal->recordDone(cell.key, attempt, artifact,
                                    fnv1a64Hex(bytes));
            }
            cell.status = CellStatus::kOk;
            cell.attempts = attempt;
            return cell;
        } catch (const JobInterruptedError&) {
            // Deliberately no journal record: the attempt never concluded,
            // exactly like a crash — resume re-runs it with the same
            // attempt number and reproduces the uninterrupted bytes.
            cell.status = CellStatus::kSkipped;
            return cell;
        } catch (const std::exception& e) {
            if (journal != nullptr)
                journal->recordFailed(cell.key, attempt, e.what());
            if (attempt >= maxAttempts) {
                cell.status = CellStatus::kFailed;
                cell.attempts = attempt;
                cell.error = e.what();
                return cell;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffDelayMs(attempt + 1)));
        }
    }
}

DurableRunResult SimEngine::runDurable(const std::vector<SimJob>& jobs,
                                       const DurablePolicy& policy) {
    ASBR_ENSURE(!policy.resume || !policy.journalDir.empty(),
                "engine: resume requires a journal directory");
    std::unique_ptr<JobJournal> journal;
    if (!policy.journalDir.empty())
        journal = std::make_unique<JobJournal>(policy.journalDir, policy.resume,
                                               manifestDigest(jobs),
                                               jobs.size());
    DurableRunResult out;
    out.cells.resize(jobs.size());
    parallelFor(jobs.size(), config_.threads, [&](std::size_t i) {
        out.cells[i] = runDurableOne(jobs[i], policy, journal.get());
    });
    out.resumedJobs = 0;
    for (const CellOutcome& cell : out.cells)
        if (cell.resumed) ++out.resumedJobs;
    out.interrupted =
        out.countWith(CellStatus::kSkipped) > 0 ||
        (policy.interrupted != nullptr &&
         policy.interrupted->load(std::memory_order_relaxed));
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

CampaignResult SimEngine::runCampaign(const SimJob& job,
                                      const CampaignConfig& campaign) {
    const FaultRunFactory factory = faultFactory(job);
    CampaignResult result;
    result.context = computeContext(factory);

    // Sample every injection up front in the serial campaign's RNG order,
    // then execute in parallel: the records land in sampling order, so the
    // merged result is bit-identical to the serial loop at any thread count.
    const std::vector<Injection> injections =
        sampleInjections(campaignSiteClasses(factory, campaign), campaign,
                         result.context.cleanCycles);
    result.records.resize(injections.size());
    parallelFor(injections.size(), config_.threads, [&](std::size_t i) {
        result.records[i] = runInjection(factory, injections[i], result.context,
                                         campaign.maxCycleFactor);
        jobsRun_.fetch_add(1, std::memory_order_relaxed);
        busyCycles_.fetch_add(result.records[i].cycles,
                              std::memory_order_relaxed);
    });
    for (const InjectionRecord& record : result.records)
        ++result.outcomes[static_cast<std::size_t>(record.outcome)];
    return result;
}

DurableCampaignResult SimEngine::runCampaignDurable(
    const SimJob& job, const CampaignConfig& campaign,
    const DurablePolicy& policy) {
    ASBR_ENSURE(!policy.resume || !policy.journalDir.empty(),
                "engine: resume requires a journal directory");
    const FaultRunFactory factory = faultFactory(job);
    DurableCampaignResult out;
    // Context + sampling are deterministic and cheap relative to the grid,
    // so every (re)start recomputes them instead of journaling them.
    out.result.context = computeContext(factory);
    const std::vector<Injection> injections =
        sampleInjections(campaignSiteClasses(factory, campaign), campaign,
                         out.result.context.cleanCycles);

    std::unique_ptr<JobJournal> journal;
    if (!policy.journalDir.empty())
        journal = std::make_unique<JobJournal>(
            policy.journalDir, policy.resume,
            campaignManifestDigest(job, campaign), injections.size());

    const std::uint64_t maxAttempts =
        std::max<std::uint64_t>(1, policy.maxAttempts);
    std::vector<std::optional<InjectionRecord>> records(injections.size());
    std::vector<std::optional<FailedInjection>> failed(injections.size());
    std::atomic<bool> sawSkip{false};
    std::atomic<std::uint64_t> resumedCount{0};

    parallelFor(injections.size(), config_.threads, [&](std::size_t i) {
        const std::string key = "inj" + std::to_string(i);
        const JournalEntry* prior =
            journal != nullptr ? journal->entry(key) : nullptr;
        const std::uint64_t priorFailures =
            prior != nullptr ? prior->failedAttempts : 0;
        if (prior != nullptr && prior->done) {
            if (const auto bytes = journal->readArtifact(prior->artifactPath,
                                                         prior->resultDigest)) {
                const JsonParseResult parsed = parseJson(*bytes);
                if (parsed.ok()) {
                    records[i] = injectionRecordFromJson(*parsed.value);
                    jobsResumed_.fetch_add(1, std::memory_order_relaxed);
                    resumedCount.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
            }
            // Corrupt artifact: recompute (deterministic — same bytes).
        }
        if (priorFailures >= maxAttempts) {
            FailedInjection f;
            f.index = i;
            f.injection = injections[i];
            f.attempts = priorFailures;
            f.error = prior->lastError;
            failed[i] = std::move(f);
            return;
        }
        for (std::uint64_t attempt = priorFailures + 1;; ++attempt) {
            if (policy.interrupted != nullptr &&
                policy.interrupted->load(std::memory_order_relaxed)) {
                sawSkip.store(true, std::memory_order_relaxed);
                return;
            }
            if (journal != nullptr) journal->recordStart(key, attempt);
            try {
                Deadline deadline(policy.jobTimeoutMs, policy.interrupted);
                InjectionRecord record = runInjection(
                    factory, injections[i], out.result.context,
                    campaign.maxCycleFactor,
                    deadline.active() ? &deadline : nullptr);
                jobsRun_.fetch_add(1, std::memory_order_relaxed);
                busyCycles_.fetch_add(record.cycles,
                                      std::memory_order_relaxed);
                if (journal != nullptr) {
                    const std::string bytes =
                        injectionRecordJson(record).dump(2) + "\n";
                    const std::string artifact =
                        JobJournal::artifactPathFor(key);
                    journal->writeArtifact(artifact, bytes);
                    journal->recordDone(key, attempt, artifact,
                                        fnv1a64Hex(bytes));
                }
                records[i] = std::move(record);
                return;
            } catch (const JobInterruptedError&) {
                sawSkip.store(true, std::memory_order_relaxed);
                return;
            } catch (const std::exception& e) {
                if (journal != nullptr)
                    journal->recordFailed(key, attempt, e.what());
                if (attempt >= maxAttempts) {
                    FailedInjection f;
                    f.index = i;
                    f.injection = injections[i];
                    f.attempts = attempt;
                    f.error = e.what();
                    failed[i] = std::move(f);
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoffDelayMs(attempt + 1)));
            }
        }
    });

    for (std::size_t i = 0; i < injections.size(); ++i) {
        if (records[i].has_value()) {
            ++out.result.outcomes[static_cast<std::size_t>(
                records[i]->outcome)];
            out.result.records.push_back(std::move(*records[i]));
        } else if (failed[i].has_value()) {
            out.failed.push_back(std::move(*failed[i]));
        }
    }
    out.resumedJobs = resumedCount.load(std::memory_order_relaxed);
    out.interrupted = sawSkip.load(std::memory_order_relaxed) ||
                      (policy.interrupted != nullptr &&
                       policy.interrupted->load(std::memory_order_relaxed));
    return out;
}

InjectionRecord SimEngine::replayInjection(const SimJob& job,
                                           const Injection& injection,
                                           std::uint64_t maxCycleFactor) {
    const FaultRunFactory factory = faultFactory(job);
    const CampaignContext context = computeContext(factory);
    Deadline deadline(config_.jobTimeoutMs);
    InjectionRecord record =
        runInjection(factory, injection, context, maxCycleFactor,
                     deadline.active() ? &deadline : nullptr);
    jobsRun_.fetch_add(1, std::memory_order_relaxed);
    busyCycles_.fetch_add(record.cycles, std::memory_order_relaxed);
    return record;
}

EngineStats SimEngine::stats() const {
    EngineStats stats;
    stats.jobsRun = jobsRun_.load(std::memory_order_relaxed);
    stats.cacheHits = cache_.stats().hits;
    stats.workerBusyCycles = busyCycles_.load(std::memory_order_relaxed);
    stats.jobsResumed = jobsResumed_.load(std::memory_order_relaxed);
    return stats;
}

void SimEngine::publishMetrics(MetricRegistry& registry) const {
    const EngineStats s = stats();
    registry
        .counter("engine.jobs_run",
                 "pipeline simulations the engine executed (batch jobs + "
                 "fault injections)")
        .set(s.jobsRun);
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
