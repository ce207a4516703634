#include "sim/sampling.hpp"

#include <algorithm>
#include <cmath>

#include "asbr/asbr_unit.hpp"
#include "sim/fast_forward_log.hpp"
#include "sim/functional.hpp"
#include "util/ensure.hpp"
#include "util/metrics.hpp"

namespace asbr {

namespace {

/// Move a cell across one skip, from architectural position `from` to `to`
/// (instructions executed since reset; `to` is at most the exit).  When a
/// checkpoint of `log` lies in (from, to], the cell jumps to the last one:
/// it applies the word runs of every interval it crosses, replays the
/// crossed bank-select stores and loads the checkpoint's registers and
/// output prefix.  Either way it then steps the remaining distance, its
/// drift, on the bare ISS, passing the unit only the bank-select stores it
/// executes, and resyncs the unit's drained BDT once at the end.
///
/// One resync is exact.  The window before the skip drained, so every
/// validity counter is zero and every register written since reset holds
/// the direction bits of its current value; the per-instruction event stream
/// would leave each register the drift writes with the bits of its last
/// value and a zero counter, and every other entry as it was.  So the resync
/// covers the registers the drift writes, plus, after a jump, every register
/// written before the checkpoint; the rest keep the entry the cell already
/// holds, which a jump does not change.
void fastForward(const FastForwardLog& log, AsbrUnit* unit,
                 const DecodeCache& decode, ArchState& state, Memory& memory,
                 IoContext& io, std::uint64_t from, std::uint64_t to) {
    const std::uint64_t spacing = log.spacing();
    // The last checkpoint at or before `to`: the exit's, or one on the grid.
    const std::size_t last = to == log.instructions()
                                 ? log.checkpoints().size() - 1
                                 : to / spacing;
    const FastForwardLog::Checkpoint& checkpoint = log.checkpoints()[last];
    std::uint64_t position = from;
    std::uint32_t written = 0;  // registers whose BDT entries must resync
    if (checkpoint.position > from) {
        for (std::size_t k = from / spacing; k < last; ++k)
            log.applyInterval(k, memory);
        position = checkpoint.position;
        if (unit != nullptr) {
            for (const FastForwardLog::BankSelect& store :
                 log.bankSelects(from, position))
                unit->onStore(kBitBankSelectAddr, store.value);
        }
        written = checkpoint.writtenRegs;
        state = checkpoint.state;
        io.output.assign(log.output(), 0, checkpoint.outputLength);
        io.exited = position == log.instructions();
        io.exitCode = io.exited ? log.exitCode() : 0;
    }
    walk(decode, state, memory, io, to - position,
         [&](const DecodedOp& dec, const ArchState& now) {
             written |= static_cast<std::uint32_t>(dec.writesDest) << dec.dest;
             if (dec.store && unit != nullptr &&
                 storeAddress(dec, now) == kBitBankSelectAddr)
                 unit->onStore(kBitBankSelectAddr, now.reg(dec.ins.rt));
         });
    if (unit != nullptr) unit->resyncDrained(state, written);
    ASBR_ENSURE(io.exited == (to == log.instructions()),
                "sampling: the cell left the fast-forward log's stream");
}

}  // namespace

void SampledResult::publish(MetricRegistry& registry) const {
    registry
        .counter("sim.sampled_windows",
                 "cycle-accurate measurement windows in a sampled run")
        .add(windows.size());
    registry
        .counter("sim.sampled_instructions",
                 "instructions measured inside cycle-accurate windows")
        .add(measuredInstructions);
    registry
        .counter("sim.fast_forward_instructions",
                 "instructions skipped between windows (jumped across the "
                 "workload's fast-forward log, or stepped on the cell's ISS)")
        .add(fastForwardInstructions);
}

void SimSpeed::publish(MetricRegistry& registry) const {
    registry
        .counter("sim.mips",
                 "host throughput in million simulated instructions per "
                 "second (host-dependent: human-facing output only, never "
                 "JSON artifacts)")
        .add(mips);
}

SampledResult runSampled(const Program& program, Memory& memory,
                         BranchPredictor& predictor, const FastForwardLog& log,
                         const PipelineConfig& config, AsbrUnit* unit) {
    const SamplingConfig& sampling = log.sampling();
    PipelineSim sim(program, memory, predictor, config, unit);
    DecodeCache decode(program);
    SampledResult out;

    // Architectural thread state, handed back and forth between the pipeline
    // and the fast-forward jumps.
    ArchState state = resetState(program);
    IoContext io;

    while (!io.exited) {
        // Detailed unit: warmup (discarded) then the measured slice.  Each
        // phase starts from a drained pipeline; warmup exists to re-warm the
        // short-lived state the drain loses, while caches/predictor/BDT stay
        // warm across the whole run.
        sim.warmStart(state, io);
        if (sampling.warmup > 0) {
            sim.run(sampling.warmup);
            sim.warmStart(sim.archState(), sim.io());
        }
        const std::uint64_t preCycles = sim.stats().cycles;
        const std::uint64_t preCommitted = sim.stats().committed;
        if (!sim.io().exited) sim.run(sampling.measure);
        const std::uint64_t windowInstructions =
            sim.stats().committed - preCommitted;
        const std::uint64_t windowCycles = sim.stats().cycles - preCycles;
        state = sim.archState();
        io = sim.io();
        if (windowInstructions > 0) {
            out.windows.push_back(SampleWindow{
                preCommitted + out.fastForwardInstructions, windowInstructions,
                windowCycles});
            out.measuredInstructions += windowInstructions;
            out.measuredCycles += windowCycles;
        }
        if (io.exited || sampling.skip == 0) continue;

        // Skip.  A fold removes its branch from the committed stream, so the
        // cell's position in the architectural stream counts folds too.
        const std::uint64_t from = sim.stats().committed +
                                   sim.stats().foldedBranches +
                                   out.fastForwardInstructions;
        ASBR_ENSURE(from < log.instructions(),
                    "sampling: the cell ran past the fast-forward log's exit");
        const std::uint64_t skipped =
            std::min(sampling.skip, log.instructions() - from);
        fastForward(log, unit, decode, state, memory, io, from,
                    from + skipped);
        out.fastForwardInstructions += skipped;
    }

    // Cumulative detailed-window stats; the cache/decode-cache snapshot
    // fields were refreshed when the last run() call returned.
    out.stats = sim.stats();
    out.totalInstructions = out.stats.committed + out.fastForwardInstructions;
    out.exited = io.exited;
    out.exitCode = io.exitCode;
    out.output = std::move(io.output);

    out.cpiEstimate =
        out.measuredInstructions == 0
            ? 0.0
            : static_cast<double>(out.measuredCycles) /
                  static_cast<double>(out.measuredInstructions);
    const std::size_t n = out.windows.size();
    if (n >= 2) {
        double mean = 0.0;
        for (const SampleWindow& w : out.windows) mean += w.cpi();
        mean /= static_cast<double>(n);
        double varSum = 0.0;
        for (const SampleWindow& w : out.windows) {
            const double d = w.cpi() - mean;
            varSum += d * d;
        }
        const double stddev = std::sqrt(varSum / static_cast<double>(n - 1));
        out.ci95HalfWidth = 1.96 * stddev / std::sqrt(static_cast<double>(n));
    }
    return out;
}

}  // namespace asbr
