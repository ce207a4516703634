// Deterministic fault-injection campaign runner (docs/fault-injection.md).
//
// A campaign repeats one workload many times, flipping a single sampled bit
// of the ASBR/predictor state at a sampled cycle of each run, and classifies
// every divergence against a golden model:
//
//   golden model   — the functional ISS (src/sim/functional) executing the
//                    same program+input; architectural ground truth.
//   lockstep check — the fault-free pipeline run must reproduce the golden
//                    output/exit-code/registers exactly before any fault is
//                    injected (the campaign refuses to start otherwise).
//   injection      — the pipeline runs to the cycle before the injection's
//                    (PipelineSim::runUntil), the bit flips while it is
//                    paused between two cycles, and the run resumes.
//   watchdog       — each injected run gets a cycle bound derived from the
//                    fault-free cycle count; exceeding it is a hang.
//
// Everything is seeded: the same (workload, seed, injection count) triple
// reproduces the same sites, cycles and outcome histogram bit-for-bit, which
// is what ci/faults.sh diffs against the committed golden reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "asm/program.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "fault/fault.hpp"
#include "mem/memory.hpp"
#include "sim/pipeline.hpp"

namespace asbr {

/// Architectural ground truth from the functional ISS.
struct GoldenResult {
    std::string output;
    std::int32_t exitCode = 0;
    std::array<std::int32_t, kNumRegs> regs{};
};

/// Everything one simulated run needs, freshly constructed per run so that
/// injected corruption can never leak between runs.  `program` must outlive
/// the run; the factory typically points it at state captured by value.
struct FaultRun {
    const Program* program = nullptr;
    Memory memory;
    std::unique_ptr<BranchPredictor> predictor;
    /// Non-owning view of `predictor` when it is bimodal (bp_counter fault
    /// sites need the concrete type); null disables the bp fault class.
    BimodalPredictor* bimodalTarget = nullptr;
    std::unique_ptr<AsbrUnit> unit;
    PipelineConfig config;
};

/// Builds a fresh FaultRun.  Called once for the golden/lockstep pair and
/// once per injection; every FaultRun it returns must be identical.
using FaultRunFactory = std::function<FaultRun()>;

/// Campaign parameters.
struct CampaignConfig {
    std::uint64_t seed = 1;         ///< fault-sampling seed (sites + cycles)
    std::uint64_t injections = 64;  ///< number of injected runs
    bool faultBdt = true;
    bool faultBit = true;
    bool faultBp = true;
    /// Watchdog for injected runs: maxCycles = cleanCycles * factor + slack.
    std::uint64_t maxCycleFactor = 4;
};

/// One injected run's full record (replayable via `asbr-faults replay`).
struct InjectionRecord {
    Injection injection;
    FaultOutcome outcome = FaultOutcome::kMasked;
    std::uint64_t cycles = 0;      ///< cycles the injected run took (0 = n/a)
    std::uint64_t recoveries = 0;  ///< parity recoveries the unit reported
    std::string detail;            ///< divergence / abort / hang description
};

/// An injection the durable engine gave up on: it failed `maxAttempts`
/// host-level attempts (wall-clock timeouts, crashes of the harness — never
/// simulated outcomes, which always classify) and was quarantined into the
/// report's `failed_jobs` section instead of aborting the campaign.
struct FailedInjection {
    std::uint64_t index = 0;  ///< sampling-order index within the campaign
    Injection injection;
    std::uint64_t attempts = 0;
    std::string error;  ///< last attempt's one-line failure
};

/// Golden model + fault-free timing, shared by all injections of a campaign.
struct CampaignContext {
    GoldenResult golden;
    std::uint64_t cleanCycles = 0;
    std::uint64_t cleanRecoveries = 0;  ///< must be 0 — asserted by computeContext
};

/// Aggregated campaign result.
struct CampaignResult {
    CampaignContext context;
    std::array<std::uint64_t, kNumFaultOutcomes> outcomes{};
    std::vector<InjectionRecord> records;

    [[nodiscard]] std::uint64_t count(FaultOutcome o) const {
        return outcomes[static_cast<std::size_t>(o)];
    }
};

/// Run the golden model and the fault-free lockstep pipeline run; throws
/// EnsureError when the pipeline diverges from the functional ISS (the
/// simulator itself is broken — no point injecting faults).
[[nodiscard]] CampaignContext computeContext(const FaultRunFactory& factory);

/// The fault-site space partitioned by enabled fault class (BDT, BIT, bp) —
/// the class mix is controlled by configuration, not by each class's raw
/// site count.  Empty classes are dropped; throws when nothing is left.
[[nodiscard]] std::vector<std::vector<FaultSite>> campaignSiteClasses(
    const FaultRunFactory& factory, const CampaignConfig& config);

/// Draw the campaign's full injection list up front, in the exact order the
/// serial campaign loop samples it (per injection: class, then site, then
/// cycle from one Xorshift64 stream seeded with config.seed).  Splitting the
/// sampling from the execution lets a parallel engine run the injections in
/// any order while reproducing the serial campaign bit for bit.
[[nodiscard]] std::vector<Injection> sampleInjections(
    const std::vector<std::vector<FaultSite>>& classes,
    const CampaignConfig& config, std::uint64_t cleanCycles);

/// Execute one injected run and classify it (see FaultOutcome): run the
/// pipeline up to the cycle before the injection's, flip the bit while it
/// is paused there, and resume.  `poll` (optional) becomes the pipeline's
/// PipelineConfig::poll — the durable engine passes its per-job wall-clock
/// Deadline.  Job-level exceptions (JobTimeoutError, JobInterruptedError)
/// propagate instead of classifying: they describe the host run, not the
/// simulated machine.
[[nodiscard]] InjectionRecord runInjection(
    const FaultRunFactory& factory, const Injection& injection,
    const CampaignContext& context, std::uint64_t maxCycleFactor,
    const std::function<void()>& poll = {});

/// Full campaign: context, deterministic site/cycle sampling, classification,
/// one injection after another.  The serial reference that the engine's
/// parallel campaign (driver::SimEngine::runCampaignDurable) must reproduce.
[[nodiscard]] CampaignResult runCampaign(const FaultRunFactory& factory,
                                         const CampaignConfig& config);

}  // namespace asbr
