#include "fault/campaign.hpp"

#include <utility>

#include "sim/functional.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace asbr {

namespace {

/// Compare a finished pipeline run against the golden model; empty string
/// means architectural agreement.
std::string divergence(const GoldenResult& golden, const PipelineResult& run) {
    if (!run.exited) return "run did not exit";
    if (run.exitCode != golden.exitCode)
        return "exit code " + std::to_string(run.exitCode) + " != " +
               std::to_string(golden.exitCode);
    if (run.output != golden.output) return "program output differs";
    for (std::uint8_t r = 0; r < kNumRegs; ++r)
        if (run.finalState.regs[r] != golden.regs[r])
            return "r" + std::to_string(r) + " = " +
                   std::to_string(run.finalState.regs[r]) + " != " +
                   std::to_string(golden.regs[r]);
    return {};
}

}  // namespace

CampaignContext computeContext(const FaultRunFactory& factory) {
    CampaignContext context;
    {
        FaultRun run = factory();
        ASBR_ENSURE(run.program != nullptr, "campaign: factory returned no program");
        FunctionalSim golden(*run.program, run.memory);
        const FunctionalResult fr = golden.run();
        ASBR_ENSURE(fr.exited, "campaign: golden model did not exit");
        context.golden.output = fr.output;
        context.golden.exitCode = fr.exitCode;
        context.golden.regs = golden.state().regs;
    }
    {
        FaultRun run = factory();
        PipelineSim sim(*run.program, run.memory, *run.predictor, run.config,
                        run.unit.get());
        const PipelineResult pr = sim.run();
        const std::string diff = divergence(context.golden, pr);
        ASBR_ENSURE(diff.empty(),
                    "campaign: fault-free pipeline run diverges from the "
                    "golden model (" + diff + ") — refusing to inject");
        context.cleanCycles = pr.stats.cycles;
        context.cleanRecoveries =
            run.unit != nullptr ? run.unit->stats().parityRecoveries : 0;
        ASBR_ENSURE(context.cleanRecoveries == 0,
                    "campaign: fault-free run reported parity recoveries");
    }
    return context;
}

namespace {

/// Chains the fault injector in front of an engine-supplied watchdog hook
/// on the single PipelineConfig::cycleHook slot.
class ChainedHook final : public CycleHook {
public:
    ChainedHook(CycleHook* first, CycleHook* second)
        : first_(first), second_(second) {}
    void onCycle(std::uint64_t cycle) override {
        first_->onCycle(cycle);
        second_->onCycle(cycle);
    }

private:
    CycleHook* first_;
    CycleHook* second_;
};

}  // namespace

InjectionRecord runInjection(const FaultRunFactory& factory,
                             const Injection& injection,
                             const CampaignContext& context,
                             std::uint64_t maxCycleFactor,
                             CycleHook* watchdog) {
    InjectionRecord record;
    record.injection = injection;

    FaultRun run = factory();
    FaultInjector injector(injection, *run.unit, run.bimodalTarget);
    ChainedHook chained(&injector, watchdog);
    run.config.cycleHook =
        watchdog != nullptr ? static_cast<CycleHook*>(&chained) : &injector;
    run.config.maxCycles =
        context.cleanCycles * maxCycleFactor + 10'000;

    try {
        PipelineSim sim(*run.program, run.memory, *run.predictor, run.config,
                        run.unit.get());
        const PipelineResult pr = sim.run();
        record.cycles = pr.stats.cycles;
        record.recoveries = run.unit->stats().parityRecoveries;
        const std::string diff = divergence(context.golden, pr);
        if (!diff.empty()) {
            record.outcome = FaultOutcome::kSdc;
            record.detail = diff;
        } else if (record.recoveries > 0) {
            record.outcome = FaultOutcome::kDetectedRecovered;
        } else {
            record.outcome = FaultOutcome::kMasked;
        }
    } catch (const JobTimeoutError&) {
        // Host wall-clock bound, not a simulated hang — the durable engine
        // retries/quarantines; never classify it as a fault outcome.
        throw;
    } catch (const JobInterruptedError&) {
        throw;  // cooperative SIGINT/SIGTERM checkpoint, same reasoning
    } catch (const SimTimeoutError& e) {
        record.outcome = FaultOutcome::kHang;
        record.recoveries = run.unit->stats().parityRecoveries;
        record.detail = e.what();
    } catch (const EnsureError& e) {
        // An integrity check (illegal decode, BIT/fetch mismatch, counter
        // invariant) stopped the machine: detected, but not survivable.  The
        // detail is the check's message alone, so it does not change when
        // the check's code is reworded or moved.
        record.outcome = FaultOutcome::kDetectedAborted;
        record.recoveries = run.unit->stats().parityRecoveries;
        record.detail = e.message();
    }
    return record;
}

std::vector<std::vector<FaultSite>> campaignSiteClasses(
    const FaultRunFactory& factory, const CampaignConfig& config) {
    std::vector<std::vector<FaultSite>> classes;
    FaultRun probe = factory();
    ASBR_ENSURE(probe.unit != nullptr, "campaign: factory returned no ASBR unit");
    const auto classSites = [&](bool bdt, bool bit, bool bp) {
        SiteFilter f;
        f.bdt = bdt;
        f.bit = bit;
        f.bp = bp;
        return enumerateSites(*probe.unit, probe.bimodalTarget, f);
    };
    if (config.faultBdt) classes.push_back(classSites(true, false, false));
    if (config.faultBit) classes.push_back(classSites(false, true, false));
    if (config.faultBp) classes.push_back(classSites(false, false, true));
    std::erase_if(classes, [](const auto& c) { return c.empty(); });
    ASBR_ENSURE(!classes.empty(), "campaign: no fault sites to sample");
    return classes;
}

std::vector<Injection> sampleInjections(
    const std::vector<std::vector<FaultSite>>& classes,
    const CampaignConfig& config, std::uint64_t cleanCycles) {
    Xorshift64 rng(config.seed);
    std::vector<Injection> injections;
    injections.reserve(config.injections);
    for (std::uint64_t i = 0; i < config.injections; ++i) {
        const auto& sites = classes[rng.below(classes.size())];
        Injection injection;
        injection.site = sites[rng.below(sites.size())];
        injection.cycle = 1 + rng.below(cleanCycles);
        injections.push_back(injection);
    }
    return injections;
}

CampaignResult runCampaign(const FaultRunFactory& factory,
                           const CampaignConfig& config) {
    CampaignResult result;
    result.context = computeContext(factory);

    const std::vector<std::vector<FaultSite>> classes =
        campaignSiteClasses(factory, config);
    result.records.reserve(config.injections);
    for (const Injection& injection :
         sampleInjections(classes, config, result.context.cleanCycles)) {
        InjectionRecord record =
            runInjection(factory, injection, result.context, config.maxCycleFactor);
        ++result.outcomes[static_cast<std::size_t>(record.outcome)];
        result.records.push_back(std::move(record));
    }
    return result;
}

}  // namespace asbr
