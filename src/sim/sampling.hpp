// Sampled cycle-accurate simulation (systematic sampling, SMARTS-style).
//
// Alternates short cycle-accurate windows with long skipped stretches: one
// persistent PipelineSim keeps every long-lived microarchitectural structure
// warm across windows (caches, predictor, BDT/BIT, decode cache), while each
// skip jumps the cell across the workload's shared FastForwardLog
// (sim/fast_forward_log.hpp) — architectural checkpoints recorded once per
// workload and window geometry — and steps only the remaining distance on
// the cell's own bare ISS, then resyncs the ASBR unit's drained BDT from the
// register file.  ASBR direction bits therefore stay architecturally exact
// and a sampled run emits the *same program output* as a full run.
//
// The CPI estimate is the ratio estimator over all measured windows
// (measured cycles / measured instructions); the reported error bound is the
// 95% confidence half-width of the per-window CPI mean.  docs/simulation.md
// derives the math and documents the bound's caveats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "bp/predictor.hpp"
#include "mem/memory.hpp"
#include "sim/pipeline.hpp"

namespace asbr {

class AsbrUnit;
class FastForwardLog;
class MetricRegistry;

/// Window geometry, in instructions.  A sampling unit is
/// [warmup (detailed, discarded) | measure (detailed, counted)] followed by
/// `skip` fast-forwarded instructions; units repeat until program exit.
struct SamplingConfig {
    std::uint64_t warmup = 2'000;
    std::uint64_t measure = 10'000;
    std::uint64_t skip = 100'000;

    auto operator<=>(const SamplingConfig&) const = default;
};

/// One measured window.
struct SampleWindow {
    std::uint64_t startInstruction = 0;  ///< executed-instruction index at
                                         ///< the start of measurement
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    [[nodiscard]] double cpi() const {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(cycles) / static_cast<double>(instructions);
    }
};

/// Outcome of a sampled run.
struct SampledResult {
    std::vector<SampleWindow> windows;
    std::uint64_t totalInstructions = 0;     ///< detailed + fast-forwarded
    std::uint64_t measuredInstructions = 0;  ///< sum over windows
    std::uint64_t measuredCycles = 0;
    std::uint64_t fastForwardInstructions = 0;
    /// Ratio estimator: measuredCycles / measuredInstructions.
    double cpiEstimate = 0.0;
    /// 95% confidence half-width of the per-window CPI mean (0 with fewer
    /// than two windows).
    double ci95HalfWidth = 0.0;
    bool exited = false;
    std::int32_t exitCode = 0;
    std::string output;  ///< full program output (identical to a full run)
    /// Cumulative pipeline statistics over the detailed windows only —
    /// fold rate / predictor accuracy estimates come from here.
    PipelineStats stats;

    /// Register sim.sampled_* counters (docs/metrics.md).
    void publish(MetricRegistry& registry) const;
};

/// Host-throughput gauge for the "how fast is the simulator" story
/// (docs/simulation.md).  sim.mips is host-dependent by construction, so it
/// only ever appears in human-facing output — never in JSON artifacts that
/// CI byte-compares across thread counts.
struct SimSpeed {
    std::uint64_t mips = 0;  ///< million simulated instructions per host second
    void publish(MetricRegistry& registry) const;
};

/// Run `program` to completion under systematic sampling with the window
/// geometry `log` was recorded for.  `memory` must be freshly prepared (same
/// contract as PipelineSim) and hold the image `log` was recorded from;
/// `unit` may be null.  A geometry with no skip never consults its (empty)
/// log.
SampledResult runSampled(const Program& program, Memory& memory,
                         BranchPredictor& predictor, const FastForwardLog& log,
                         const PipelineConfig& config = {},
                         AsbrUnit* unit = nullptr);

}  // namespace asbr
