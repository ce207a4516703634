// The traced run: per-layer metrics from spans around each layer call.
//
// Every span wraps one call into a layer's public API from the outside.
// Three sources feed the spans:
//  - the workload's own jobs, executed call by call (the same calls
//    SimEngine makes, checked against the same pins);
//  - for the two sweeps, the set-up that resolves their artifacts;
//  - a probe of every layer on the six codecs at cold-asbr size, so that a
//    layer the workload never calls still reports.  A metric uses the
//    workload's own spans whenever there are any.
// The same jobs also run once untraced, which prices the spans themselves.
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "asm/assembler.hpp"
#include "bench.hpp"
#include "cc/compile.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "sim/functional.hpp"
#include "workloads/input_gen.hpp"

namespace hostbench {

using asbr::BenchId;
using asbr::driver::Prepared;

void resolveArtifacts(SimEngine& engine, std::span<const SimJob> jobs,
                      std::size_t threads, Spans* spans) {
    struct WorkloadNeeds {
        const SimJob* job = nullptr;
        bool profile = false;
        bool baseline = false;
        std::set<std::string> tokens;  ///< predictor-aware selections
    };
    std::map<asbr::driver::WorkloadKey, WorkloadNeeds> workloads;
    std::map<asbr::driver::SelectionKey, const SimJob*> selections;
    for (const SimJob& job : jobs) {
        WorkloadNeeds& needs = workloads[engine.workloadKeyFor(job)];
        needs.job = &job;
        if (!job.asbr) continue;
        needs.profile = true;
        needs.baseline =
            needs.baseline || job.accuracyRef || job.predictorAware;
        if (job.predictorAware) needs.tokens.insert(job.predictor);
        selections.emplace(engine.selectionKeyFor(job), &job);
    }

    std::vector<const WorkloadNeeds*> byWorkload;
    for (const auto& entry : workloads) byWorkload.push_back(&entry.second);
    std::vector<const SimJob*> bySelection;
    for (const auto& entry : selections) bySelection.push_back(entry.second);
    std::vector<Spans> local(byWorkload.size() + bySelection.size());
    const auto spansOf = [&](std::size_t i) {
        return spans != nullptr ? &local[i] : nullptr;
    };
    asbr::driver::parallelFor(byWorkload.size(), threads, [&](std::size_t i) {
        const WorkloadNeeds& needs = *byWorkload[i];
        Spans* s = spansOf(i);
        const auto workload = timed(s, "driver.prepare", [&] {
            return engine.workloadFor(*needs.job);
        });
        if (needs.profile) {
            const asbr::ProgramProfile& profile = timed(
                s, "profile.branch_profile",
                [&]() -> const asbr::ProgramProfile& {
                    return workload->profile();
                });
            if (s != nullptr) s->list.back().work = profile.instructions;
        }
        if (needs.baseline)
            (void)timed(s, "driver.baseline_accuracy", [&]() -> const auto& {
                return workload->baselineAccuracy();
            });
        for (const std::string& token : needs.tokens)
            (void)timed(s, "profile.prediction_profile",
                        [&] { return workload->predictionProfile(token); });
    });
    asbr::driver::parallelFor(bySelection.size(), threads, [&](std::size_t i) {
        (void)timed(spansOf(byWorkload.size() + i), "profile.select",
                    [&] { return engine.selectionFor(*bySelection[i]); });
    });
    if (spans != nullptr)
        for (const Spans& s : local) spans->append(s);
}

namespace {

constexpr const char* kFamilies[] = {"bimodal", "bi512", "gshare", "tage",
                                     "perceptron"};

/// Simulate one job whose artifacts `engine` already holds and build its
/// report, exactly as SimEngine::execute does, one spanned call at a time.
JobResult simulate(SimEngine& engine, const SimJob& job, Spans& spans) {
    const auto workload = engine.workloadFor(job);
    std::string error;
    const auto predictor =
        asbr::driver::makePredictorByToken(job.predictor, &error);
    if (predictor == nullptr) throw std::runtime_error(error);
    std::shared_ptr<const asbr::driver::SelectionArtifacts> selection;
    std::unique_ptr<asbr::AsbrUnit> unit;
    if (job.asbr) {
        selection = engine.selectionFor(job);
        unit = selection->makeUnit(job.parityProtected);
    }

    JobResult out;
    const Clock::time_point start = Clock::now();
    if (job.sampled) {
        out.sampled = std::make_shared<asbr::SampledResult>(
            timed(&spans, "sim.sampled", [&] {
                return asbr::driver::runSampledPipeline(
                    workload->prepared(), *predictor, unit.get(),
                    job.sampling);
            }));
        spans.list.back().work = out.sampled->fastForwardInstructions;
        out.stats = out.sampled->stats;
    } else {
        const asbr::PipelineResult result =
            timed(&spans, "sim.pipeline", [&] {
                return asbr::driver::runPipeline(workload->prepared(),
                                                 *predictor, unit.get());
            });
        Span& span = spans.list.back();
        span.work = result.stats.cycles;
        span.group = std::string(asbr::driver::benchToken(job.workload)) +
                     "/" + job.predictor;
        span.withUnit = unit != nullptr;
        out.stats = result.stats;
    }
    out.simSeconds = secondsSince(start);

    asbr::RunMeta meta;
    meta.benchmark = asbr::benchName(job.workload);
    meta.predictor = predictor->name();
    meta.predictorToken = predictor->token();
    meta.figure = job.figure;
    meta.seed = job.seed;
    meta.samples = engine.workloadKeyFor(job).samples;
    meta.scheduled = job.scheduled;
    if (unit != nullptr) {
        meta.asbr = true;
        meta.bitEntries = unit->config().bitCapacity;
        meta.updateStage = asbr::valueStageName(unit->config().updateStage);
        meta.predictorAware = job.predictorAware;
    }
    out.report = timed(&spans, "report.build", [&] {
        return asbr::makeSimReport(std::move(meta), out.stats,
                                   predictor.get(), unit.get());
    });
    if (out.sampled != nullptr) out.sampled->publish(out.report.registry);
    if (unit != nullptr && job.predictorAware)
        selection->awareMetrics().publish(out.report.registry);
    return out;
}

/// A decoder's input: the matching encoder's output, as driver::prepare
/// makes it.
std::vector<std::uint8_t> decoderInput(BenchId id,
                                       const std::vector<std::int16_t>& pcm) {
    switch (id) {
        case BenchId::kAdpcmDecode:
            return asbr::runEncoderRef(BenchId::kAdpcmEncode, pcm);
        case BenchId::kG721Decode:
            return asbr::runEncoderRef(BenchId::kG721Encode, pcm);
        case BenchId::kG711Decode:
            return asbr::runEncoderRef(BenchId::kG711Encode, pcm);
        default:
            return {};
    }
}

struct BranchEvent {
    std::uint32_t pc = 0;
    std::uint32_t target = 0;
    std::uint32_t nextPc = 0;
    bool taken = false;
};

/// The committed conditional-branch stream of a functional run.
std::vector<BranchEvent> recordBranches(const Prepared& prepared) {
    std::vector<BranchEvent> events;
    asbr::Memory memory = asbr::driver::makeMemory(prepared);
    asbr::FunctionalSim sim(prepared.program, memory);
    sim.setTraceHook(
        [&](const asbr::Instruction&, const asbr::StepResult& sr) {
            if (sr.isBranch)
                events.push_back(
                    {sr.pc, sr.branchTarget, sr.nextPc, sr.branchTaken});
        });
    (void)sim.run();
    return events;
}

/// Replay `events` through predict/update, scored like profilePredictions.
std::uint64_t replay(asbr::BranchPredictor& predictor,
                     const std::vector<BranchEvent>& events) {
    predictor.reset();
    std::uint64_t mispredicts = 0;
    for (const BranchEvent& e : events) {
        const asbr::Prediction prediction = predictor.predict(e.pc);
        const std::uint32_t next =
            prediction.effectiveTaken() ? *prediction.target : e.pc + 4;
        if (next != e.nextPc) ++mispredicts;
        predictor.update(e.pc, e.taken, e.target);
    }
    return mispredicts;
}

/// Call every layer's public API once on `job`'s codec (a cold-asbr --asbr
/// job).  False when any output is wrong.
bool probeCodec(const SimJob& job, const Gate& gate, Spans& spans) {
    const BenchId id = job.workload;
    bool ok = true;
    SimEngine engine;
    const std::size_t samples = engine.workloadKeyFor(job).samples;

    (void)timed(&spans, "workloads.input", [&] {
        const std::vector<std::int16_t> pcm =
            asbr::generateSpeech(samples, job.seed);
        return decoderInput(id, pcm).size() + pcm.size();
    });
    const asbr::cc::Compiled compiled = timed(&spans, "cc.compile", [&] {
        return asbr::cc::compile(asbr::benchSource(id));
    });
    (void)timed(&spans, "asm.assemble", [&] {
        asbr::AsmOptions options;
        options.entrySymbol = "__start";  // as cc::compile assembles
        return asbr::assemble(compiled.assembly, options);
    });
    std::optional<asbr::analysis::FoldLegalityVerifier> verifier;
    (void)timed(&spans, "analysis.verifier", [&] {
        verifier.emplace(compiled.program);
        return 0;
    });

    resolveArtifacts(engine, {&job, 1}, 1, &spans);
    const auto workload = engine.workloadFor(job);
    const Prepared& prepared = workload->prepared();
    const std::uint64_t instructions = workload->profile().instructions;
    (void)timed(&spans, "profile.prediction_profile",
                [&] { return workload->predictionProfile("tage"); });
    {
        asbr::Memory memory = asbr::driver::makeMemory(prepared);
        asbr::FunctionalSim sim(prepared.program, memory);
        const asbr::FunctionalResult run =
            timed(&spans, "sim.functional", [&] { return sim.run(); });
        spans.list.back().work = run.instructions;
        ok = ok && run.instructions == instructions;
    }

    // Predictor replay over the real branch stream; the mispredict count
    // must equal the profile layer's for the same predictor.
    const std::vector<BranchEvent> events = recordBranches(prepared);
    for (const char* family : kFamilies) {
        const auto predictor = asbr::driver::makePredictorByToken(family);
        const std::uint64_t mispredicts =
            timed(&spans, "bp." + std::string(family) + ".replay",
                  [&] { return replay(*predictor, events); });
        spans.list.back().work = events.size();
        asbr::Memory memory = asbr::driver::makeMemory(prepared);
        const auto reference = asbr::driver::makePredictorByToken(family);
        const asbr::PredictionProfile profile =
            asbr::profilePredictions(prepared.program, memory, *reference);
        if (mispredicts != profile.mispredicts) {
            std::fprintf(stderr,
                         "probe: %s replay disagrees with the profile\n",
                         family);
            ok = false;
        }
    }

    // The pinned --asbr job, its baseline and a sampled baseline run.
    const JobResult asbrRun = simulate(engine, job, spans);
    ok = roundFailures(engine, {&job, 1}, {&asbrRun, 1}, gate,
                       {&spans, 1}) == 0 &&
         ok;
    SimJob base = job;
    base.asbr = false;
    ok = simulate(engine, base, spans).stats.committed == instructions && ok;
    base.sampled = true;
    base.sampling = kSampling;
    ok = simulate(engine, base, spans).sampled->totalInstructions ==
             instructions &&
         ok;
    if (!ok)
        std::fprintf(stderr, "probe: %s failed\n",
                     asbr::driver::benchToken(id));
    return ok;
}

/// Sums of the exact counters every job's MetricRegistry holds.
class Counts {
public:
    void add(const JobResult& result, bool asbrJob) {
        for (const auto& [name, counter] :
             result.report.registry.counters()) {
            sums_[name] += counter.value();
            if (asbrJob) asbrSums_[name] += counter.value();
        }
    }
    [[nodiscard]] double all(const std::string& name) const {
        return get(sums_, name);
    }
    [[nodiscard]] double asbrJobs(const std::string& name) const {
        return get(asbrSums_, name);
    }

private:
    static double get(const std::map<std::string, std::uint64_t>& sums,
                      const std::string& name) {
        const auto it = sums.find(name);
        return it == sums.end() ? 0.0 : static_cast<double>(it->second);
    }
    std::map<std::string, std::uint64_t> sums_;
    std::map<std::string, std::uint64_t> asbrSums_;
};

/// Span statistics per layer, from the workload's own spans when it made
/// that call and from the probe otherwise.
class Layers {
public:
    Layers(const Spans& own, const Spans& probe) : own_(own), probe_(probe) {}

    [[nodiscard]] double secondsPerCall(std::string_view layer) const {
        const auto spans = of(layer);
        return spans.empty()
                   ? 0.0
                   : seconds(spans) / static_cast<double>(spans.size());
    }
    [[nodiscard]] double workPerCall(std::string_view layer) const {
        const auto spans = of(layer);
        return spans.empty() ? 0.0
                             : work(spans) / static_cast<double>(spans.size());
    }
    /// Millions of work units per second.
    [[nodiscard]] double megaRate(std::string_view layer) const {
        const auto spans = of(layer);
        return work(spans) / seconds(spans) / 1e6;
    }
    [[nodiscard]] double nanosPerUnit(std::string_view layer) const {
        const auto spans = of(layer);
        return seconds(spans) * 1e9 / work(spans);
    }
    /// Host seconds per simulated cycle with an AsbrUnit over the same
    /// without, averaged over workload x predictor pairs that have both.
    [[nodiscard]] double hookCostRatio() const {
        const double own = hookCostRatio(select(own_, "sim.pipeline"));
        return own > 0.0 ? own
                         : hookCostRatio(select(probe_, "sim.pipeline"));
    }

private:
    using SpanList = std::vector<const Span*>;

    [[nodiscard]] SpanList of(std::string_view layer) const {
        SpanList out = select(own_, layer);
        return out.empty() ? select(probe_, layer) : out;
    }
    static SpanList select(const Spans& spans, std::string_view layer) {
        SpanList out;
        for (const Span& span : spans.list)
            if (span.layer == layer) out.push_back(&span);
        return out;
    }
    static double seconds(const SpanList& spans) {
        double total = 0.0;
        for (const Span* span : spans) total += span->seconds;
        return total;
    }
    static double work(const SpanList& spans) {
        double total = 0.0;
        for (const Span* span : spans)
            total += static_cast<double>(span->work);
        return total;
    }
    static double hookCostRatio(const SpanList& spans) {
        struct Side {
            double seconds = 0.0;
            double cycles = 0.0;
        };
        std::map<std::string, std::pair<Side, Side>> groups;  // without, with
        for (const Span* span : spans) {
            auto& pair = groups[span->group];
            Side& side = span->withUnit ? pair.second : pair.first;
            side.seconds += span->seconds;
            side.cycles += static_cast<double>(span->work);
        }
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto& [group, pair] : groups) {
            const auto& [without, with] = pair;
            if (without.cycles == 0.0 || with.cycles == 0.0) continue;
            sum += (with.seconds / with.cycles) /
                   (without.seconds / without.cycles);
            ++n;
        }
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
    }

    const Spans& own_;
    const Spans& probe_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Cold rounds per pass: each pass runs the 18-job cycle this many times.
constexpr int kColdRounds = 2;

constexpr const char* kExactCounters[] = {
    "pipeline.cycles",
    "pipeline.committed",
    "pipeline.cond_branches",
    "pipeline.folded_branches",
    "pipeline.predicted_branches",
    "pipeline.predicted_correct",
    "sim.decode_cache_lookups",
    "sim.decode_cache_hits",
    "mem.icache.accesses",
    "mem.icache.misses",
    "mem.dcache.accesses",
    "mem.dcache.misses",
    "asbr.bit_lookups",
    "asbr.folds",
    "asbr.blocked_invalid",
};

}  // namespace

RunOutcome runTraced(Workload workload, std::uint64_t seed,
                     const Gate& gate) {
    RunOutcome out;
    const std::uint64_t inputSeed = inputSeedFor(seed);
    const std::vector<SimJob> jobs = roundJobs(workload, inputSeed);

    // One --asbr job per codec: every third job of the cold cycle.
    Spans probe;
    const std::vector<SimJob> cold =
        roundJobs(Workload::kColdAsbr, inputSeed);
    for (std::size_t i = 0; i < cold.size(); i += 3) {
        ++out.attempted;
        if (!probeCodec(cold[i], gate, probe)) ++out.failed;
    }

    // The same jobs untraced (as the untraced run executes them) and traced.
    Spans own;
    Counts counts;
    double untracedWall = 0.0;
    double tracedWall = 0.0;
    double simSeconds = 0.0;
    std::size_t workers = 1;
    asbr::driver::ArtifactCache::Stats cache;
    const auto addCache = [&](const asbr::driver::ArtifactCache::Stats& s) {
        cache.hits += s.hits;
        cache.workloadComputes += s.workloadComputes;
        cache.selectionComputes += s.selectionComputes;
    };
    if (workload == Workload::kColdAsbr) {
        for (int round = 0; round < kColdRounds; ++round) {
            Clock::time_point start = Clock::now();
            for (const SimJob& job : jobs) {
                SimEngine engine;
                const JobResult result = engine.runOne(job);
                out.failed +=
                    roundFailures(engine, {&job, 1}, {&result, 1}, gate);
                simSeconds += result.simSeconds;
                addCache(engine.cacheStats());
            }
            untracedWall += secondsSince(start);
            start = Clock::now();
            for (const SimJob& job : jobs) {
                SimEngine engine;
                Spans spans;
                resolveArtifacts(engine, {&job, 1}, 1, &spans);
                const JobResult result = simulate(engine, job, spans);
                out.failed += roundFailures(engine, {&job, 1}, {&result, 1},
                                            gate, {&spans, 1});
                own.append(spans);
                counts.add(result, job.asbr);
            }
            tracedWall += secondsSince(start);
            out.attempted += 2 * jobs.size();
        }
    } else {
        workers = sweepThreads();
        asbr::driver::EngineConfig config;
        config.threads = workers;
        SimEngine engine(config);
        resolveArtifacts(engine, jobs, workers, &own);

        Clock::time_point start = Clock::now();
        const std::vector<JobResult> untraced = engine.run(jobs);
        out.failed += roundFailures(engine, jobs, untraced, gate);
        untracedWall = secondsSince(start);
        for (const JobResult& result : untraced)
            simSeconds += result.simSeconds;
        addCache(engine.cacheStats());

        start = Clock::now();
        std::vector<Spans> spans(jobs.size());
        std::vector<JobResult> traced(jobs.size());
        asbr::driver::parallelFor(jobs.size(), workers, [&](std::size_t i) {
            traced[i] = simulate(engine, jobs[i], spans[i]);
        });
        out.failed += roundFailures(engine, jobs, traced, gate, spans);
        tracedWall = secondsSince(start);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            own.append(spans[i]);
            counts.add(traced[i], jobs[i].asbr);
        }
        out.attempted += 2 * jobs.size();
    }

    const Layers layers(own, probe);
    const auto perCall = [&](const char* name, const char* layer) {
        return Metric{name, layers.secondsPerCall(layer), "s"};
    };
    const auto rate = [&](const char* name, const char* layer,
                          const char* unit) {
        return Metric{name, layers.megaRate(layer), unit};
    };
    const auto countRatio = [&](const char* name, const char* num,
                                const char* den) {
        return Metric{name, ratio(counts.all(num), counts.all(den)), "ratio"};
    };
    const auto hitRatio = [&](const char* name, const std::string& cache) {
        return Metric{name,
                      1.0 - ratio(counts.all(cache + ".misses"),
                                  counts.all(cache + ".accesses")),
                      "ratio"};
    };
    const double hits = static_cast<double>(cache.hits);
    const double computes =
        static_cast<double>(cache.workloadComputes + cache.selectionComputes);
    out.metrics = {
        perCall("driver.prepare_s", "driver.prepare"),
        perCall("driver.baseline_accuracy_s", "driver.baseline_accuracy"),
        {"driver.cache_hit_ratio", ratio(hits, hits + computes), "ratio"},
        {"driver.worker_utilization",
         ratio(simSeconds, static_cast<double>(workers) * untracedWall),
         "ratio"},
        perCall("cc.compile_s", "cc.compile"),
        perCall("asm.assemble_s", "asm.assemble"),
        perCall("workloads.input_s", "workloads.input"),
        perCall("profile.branch_profile_s", "profile.branch_profile"),
        rate("profile.branch_profile_mips", "profile.branch_profile", "MIPS"),
        perCall("profile.prediction_profile_s", "profile.prediction_profile"),
        perCall("profile.select_s", "profile.select"),
        perCall("analysis.verifier_s", "analysis.verifier"),
        perCall("sim.pipeline_s", "sim.pipeline"),
        rate("sim.pipeline_mcps", "sim.pipeline", "Mcycles/s"),
        perCall("sim.sampled_s", "sim.sampled"),
        rate("sim.fast_forward_mips", "sim.sampled", "MIPS"),
        rate("sim.functional_mips", "sim.functional", "MIPS"),
        countRatio("sim.decode_cache_hit_ratio", "sim.decode_cache_hits",
                   "sim.decode_cache_lookups"),
        {"asbr.hook_cost_ratio", layers.hookCostRatio(), "ratio"},
        {"asbr.fold_rate",
         ratio(counts.asbrJobs("pipeline.folded_branches"),
               counts.asbrJobs("pipeline.cond_branches")),
         "ratio"},
        countRatio("asbr.blocked_ratio", "asbr.blocked_invalid",
                   "asbr.bit_lookups"),
    };
    for (const char* family : kFamilies) {
        const std::string stem = "bp." + std::string(family) + ".replay";
        out.metrics.push_back({stem + "_ns", layers.nanosPerUnit(stem), "ns"});
    }
    out.metrics.insert(
        out.metrics.end(),
        {
            countRatio("bp.accuracy", "pipeline.predicted_correct",
                       "pipeline.predicted_branches"),
            countRatio("mem.icache.accesses_per_cycle", "mem.icache.accesses",
                       "pipeline.cycles"),
            hitRatio("mem.icache.hit_ratio", "mem.icache"),
            hitRatio("mem.dcache.hit_ratio", "mem.dcache"),
            perCall("report.build_s", "report.build"),
            perCall("report.serialize_s", "report.serialize"),
            perCall("report.validate_s", "report.validate"),
            {"report.bytes", layers.workPerCall("report.serialize"), "B"},
            {"trace.overhead_ratio", ratio(tracedWall, untracedWall),
             "ratio"},
        });
    // Exact counts: they repeat bit for bit on a given seed, on any host.
    for (const char* name : kExactCounters)
        out.metrics.push_back(
            {"exact." + std::string(name), counts.all(name), "count"});
    out.metrics.push_back({"exact.driver.cache_hits", hits, "count"});
    return out;
}

}  // namespace hostbench
