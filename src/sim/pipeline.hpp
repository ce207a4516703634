// Cycle-accurate 5-stage in-order single-issue pipeline (IF ID EX MEM WB).
//
// Timing model (matching the paper's embedded-core configuration):
//  - full forwarding EX->EX and MEM->EX; one-cycle load-use interlock
//  - conditional branches predicted in IF (customizer first, then the branch
//    predictor + BTB) and resolved in EX; a mispredict flushes the two
//    younger stages => 2-cycle penalty
//  - direct jumps (j/jal) redirect in IF (predecode); jr/jalr resolve in EX
//  - multi-cycle mul/div occupy EX (blocking)
//  - I-cache miss stalls fetch; D-cache miss stalls MEM; penalties from
//    CacheConfig
//
// Architectural execution happens when an instruction enters EX; wrong-path
// instructions never get past ID, so the pipeline is functionally equivalent
// to the functional ISS by construction.
//
// Fetch is served by a decode cache (sim/decode_cache.hpp): each text word is
// decoded once, when the cache is bound, into a DecodedOp micro-op record and
// every fetch of its address reuses it.  Fold replacements the ASBR unit
// injects are decoded on the fly instead — a BTI/BFI is not guaranteed to
// match the program image — so the cache can never leak a stale or wrong
// record into the fold path.  The cache affects host speed only, never
// simulated timing.
//
// Host-side shape of the cycle loop: the four inter-stage latches are
// pointers rotating over four fixed Slot records, so an instruction's slot
// moves down the pipe without being copied; fetch fills its slot in place
// and EX executes straight into the slot's StepResult.  The loop is one
// template instantiated twice — with no customizer, and with the AsbrUnit,
// the only customizer type, whose hooks bind directly and inline.  It runs
// in chunks: each cycle makes one comparison against the chunk end, the
// nearest of a pause (runUntil), the cycle bound and the next poll
// (PipelineConfig::poll), and the loop handles whichever it reached between
// two cycles.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "asm/program.hpp"
#include "bp/predictor.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "sim/decode_cache.hpp"
#include "sim/exec.hpp"
#include "sim/fetch_customizer.hpp"

namespace asbr {

class AsbrUnit;
class MetricRegistry;
class Tracer;

/// Pipeline configuration.
struct PipelineConfig {
    CacheConfig icache{8 * 1024, 32, 2, 8};
    CacheConfig dcache{8 * 1024, 32, 2, 8};
    std::uint32_t mulLatency = 4;   ///< EX occupancy cycles for mul/mulh
    std::uint32_t divLatency = 12;  ///< EX occupancy cycles for div/rem
    /// Extra fetch bubbles after a control-flow redirect (mispredict or
    /// jr/jalr), modeling a registered fetch address.  Total mispredict
    /// penalty = 2 (flushed stages) + redirectBubbles; the default of 1
    /// matches the 3-cycle penalty of the paper's SimpleScalar fetch path.
    std::uint32_t redirectBubbles = 1;
    /// Watchdog: run() throws SimTimeoutError once this many cycles pass
    /// without the program exiting.  The default is generous (a runaway
    /// program, not a long one); fault campaigns tighten it to a small
    /// multiple of the fault-free cycle count to classify hangs quickly.
    std::uint64_t maxCycles = 4'000'000'000ULL;
    /// Optional poll, with the contract of FunctionalSim::run's: it runs
    /// between two cycles each time the simulator's cumulative cycle count
    /// reaches a multiple of kWalkPollInterval (sim/functional.hpp), across
    /// run() calls, and may throw to abandon the run.  A job's deadline
    /// rides here.
    std::function<void()> poll;
    /// Optional structured event tracer (docs/tracing.md).  Non-owning.
    /// Tracing never changes simulated timing — only host-side cost.
    Tracer* tracer = nullptr;
};

/// Per-branch-site dynamic statistics.
struct BranchSiteStats {
    std::uint64_t execs = 0;      ///< dynamic executions (incl. folded)
    std::uint64_t taken = 0;
    std::uint64_t predicted = 0;  ///< correct fetch redirects (excl. folded)
    std::uint64_t folded = 0;     ///< executions resolved by the customizer

    [[nodiscard]] double accuracy() const {
        const std::uint64_t p = execs - folded;
        return p == 0 ? 0.0 : static_cast<double>(predicted) / static_cast<double>(p);
    }
    [[nodiscard]] double takenRate() const {
        return execs == 0 ? 0.0 : static_cast<double>(taken) / static_cast<double>(execs);
    }
};

/// Aggregate run statistics.
struct PipelineStats {
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;   ///< architecturally completed instructions
    std::uint64_t fetched = 0;     ///< instructions entering the pipeline
                                   ///< (includes wrong-path, excludes folded-out branches)
    std::uint64_t condBranches = 0;   ///< executed conditional branches (incl. folded)
    std::uint64_t foldedBranches = 0; ///< resolved by the fetch customizer
    std::uint64_t predictedBranches = 0;  ///< handled by the predictor
    std::uint64_t predictedCorrect = 0;   ///< ... with a correct fetch redirect
    std::uint64_t mispredicts = 0;        ///< control flushes (branches + jr/jalr)
    std::uint64_t loadUseStalls = 0;
    std::uint64_t redirectStallCycles = 0;
    std::uint64_t parityStallCycles = 0;  ///< resync bubbles after parity recoveries
    std::uint64_t icacheStallCycles = 0;
    std::uint64_t dcacheStallCycles = 0;
    std::uint64_t mulDivStallCycles = 0;
    std::uint64_t decodeCacheLookups = 0;  ///< fetches served by the decode cache
    std::uint64_t decodeCacheHits = 0;     ///< ... without running the decoder
    CacheStats icache;
    CacheStats dcache;
    std::map<std::uint32_t, BranchSiteStats> branchSites;

    [[nodiscard]] double cpi() const {
        return committed == 0 ? 0.0
                              : static_cast<double>(cycles) / static_cast<double>(committed);
    }
    /// Direction-prediction accuracy over predictor-handled branches.
    [[nodiscard]] double predictorAccuracy() const {
        return predictedBranches == 0
                   ? 0.0
                   : static_cast<double>(predictedCorrect) /
                         static_cast<double>(predictedBranches);
    }
    /// Overall branch-resolution accuracy counting folds as certain.
    [[nodiscard]] double resolutionAccuracy() const {
        return condBranches == 0
                   ? 0.0
                   : static_cast<double>(predictedCorrect + foldedBranches) /
                         static_cast<double>(condBranches);
    }
    /// Fraction of executed conditional branches resolved by folding.
    [[nodiscard]] double foldRate() const {
        return condBranches == 0
                   ? 0.0
                   : static_cast<double>(foldedBranches) /
                         static_cast<double>(condBranches);
    }
    /// Conditional branches as a fraction of committed instructions.
    [[nodiscard]] double branchFraction() const {
        return committed == 0 ? 0.0
                              : static_cast<double>(condBranches) /
                                    static_cast<double>(committed);
    }

    /// Register every counter, per-site table and distribution under
    /// `pipeline.*` / `mem.*` in the metric registry (docs/metrics.md is the
    /// reference; CI checks it against these names).
    void publish(MetricRegistry& registry) const;
};

/// Result of a pipeline run.
struct PipelineResult {
    PipelineStats stats;
    bool exited = false;
    std::int32_t exitCode = 0;
    std::string output;
    ArchState finalState;
};

class PipelineSim {
public:
    /// `predictor` must outlive the simulator; `unit`, the ASBR unit that
    /// customizes fetch, may be null and must outlive it too.
    PipelineSim(const Program& program, Memory& memory,
                BranchPredictor& predictor, const PipelineConfig& config = {},
                AsbrUnit* unit = nullptr);

    /// The latches point into the simulator itself.
    PipelineSim(const PipelineSim&) = delete;
    PipelineSim& operator=(const PipelineSim&) = delete;

    /// Run the program to completion (exit syscall), or — when maxCommits is
    /// nonzero — until at least that many further instructions commit (the
    /// pipeline drains in-flight work, so the actual count may overshoot by
    /// the pipeline depth).  Throws SimTimeoutError if config.maxCycles is
    /// exceeded.  Cycle/commit counters accumulate across calls; after a
    /// bounded run, resume with warmStart() + run().  A run that has
    /// finished simulates nothing more until warmStart() re-arms it.
    PipelineResult run(std::uint64_t maxCommits = 0);

    /// Simulate up to and including cycle `cycle` (a cumulative count; 0 is
    /// before the first cycle, and a cycle already simulated pauses at once)
    /// and pause there, between two cycles, with every latch intact: a later
    /// run() resumes bit-identically, as if it had never stopped.  Returns
    /// false, without pausing, when the program finishes at or before
    /// `cycle`.  A pause is not a warmStart(); fault injection flips its bit
    /// during one.
    bool runUntil(std::uint64_t cycle);

    /// Re-arm a drained simulator to resume execution from `state` with I/O
    /// context `io`: clears latches and transient stall state, sets the
    /// fetch PC, and — deliberately — preserves everything warm: caches,
    /// predictor, customizer (BDT/BIT), decode cache, and cumulative stats.
    /// Sampled simulation uses this to re-enter cycle-accurate windows after
    /// functional fast-forward.
    void warmStart(const ArchState& state, IoContext io);

    /// Cumulative statistics so far (valid between run() calls; cache-stat
    /// snapshots are refreshed at the end of each run() call).
    [[nodiscard]] const PipelineStats& stats() const { return stats_; }
    /// Architectural state after the last run() call.
    [[nodiscard]] const ArchState& archState() const { return state_; }
    /// I/O context accumulated so far.
    [[nodiscard]] const IoContext& io() const { return io_; }

private:
    /// One in-flight instruction.  Fetch fills every field but `exec`, which
    /// EX fills when the instruction executes.
    struct Slot {
        bool valid = false;
        std::uint32_t pc = 0;
        /// Pre-decoded micro-op.  Points either into the decode cache (whose
        /// records are decoded once at bind() and never move) or into
        /// injected_ for customizer replacements and out-of-text bubbles.
        const DecodedOp* dec = nullptr;
        std::uint32_t predictedNext = 0;
        bool wasFolded = false;      ///< injected by the customizer
        std::uint32_t foldOrigin = 0;  ///< folded branch's own PC
        bool foldTaken = false;      ///< resolved direction of the fold
        bool outOfText = false;      ///< speculative fetch past the text end
        StepResult exec;             ///< filled when entering EX
    };

    /// Store a freshly-decoded record (fold replacement or out-of-text
    /// bubble) in the injected-op ring and return its stable address.  At
    /// most one injection per fetch and at most five slots in flight, so a
    /// ring of eight can never overwrite a live record.
    const DecodedOp* inject(const DecodedOp& dec);

    /// The run is over: the program exited or its commit budget is spent,
    /// and the pipeline has drained.
    [[nodiscard]] bool finished() const {
        return (io_.exited || halting_) && !idEx_->valid && !exMem_->valid &&
               !memWb_->valid;
    }
    /// The cycle loop and its stages, instantiated with no customizer and
    /// with the AsbrUnit (pipeline.cpp).  Returns true when it paused after
    /// cycle `pauseAt`, false when the run finished.
    template <class Customizer>
    bool cycleLoop(Customizer& customizer, std::uint64_t pauseAt);
    template <class Customizer>
    void stageWriteback(Customizer& customizer);
    template <class Customizer>
    void stageMemory(Customizer& customizer);
    template <class Customizer>
    void stageExecute(Customizer& customizer);
    template <class Customizer>
    void stageDecode(Customizer& customizer);
    template <class Customizer>
    void stageFetch(Customizer& customizer);
    /// Deliver `slot`'s produced value if `stage` is where it is captured.
    template <class Customizer>
    void emitValue(Customizer& customizer, const Slot& slot, ValueStage stage);

    void redirect(std::uint32_t target);
    /// Dense per-site counters of the branch at `pc`, for a caller about to
    /// count one execution of it; an out-of-text PC (a corrupted BIT
    /// target) counts straight into stats_.branchSites.
    BranchSiteStats& site(std::uint32_t pc);
    [[nodiscard]] std::uint32_t exOccupancy(Op op) const;
    void traceLatches();  ///< record end-of-cycle stage occupancy (tracing)

    const Program& program_;
    Memory& memory_;
    BranchPredictor& predictor_;
    PipelineConfig config_;
    AsbrUnit* unit_;
    ValueStage capture_ = ValueStage::kCommit;  ///< the unit's captureStage()

    Cache icache_;
    Cache dcache_;
    DecodeCache decode_;  ///< the decoded text; counts fetch lookups
    ArchState state_;
    IoContext io_;
    PipelineStats stats_;
    /// Per-site branch counters, one per text word; copied into
    /// stats_.branchSites at the end of every run().
    std::vector<BranchSiteStats> sites_;
    std::vector<std::uint32_t> executedSites_;  ///< sites_ indices with execs > 0

    std::array<Slot, 4> slots_{};
    Slot* ifId_ = &slots_[0];
    Slot* idEx_ = &slots_[1];
    Slot* exMem_ = &slots_[2];
    Slot* memWb_ = &slots_[3];
    std::array<DecodedOp, 8> injected_{};  ///< ring backing injected decodes
    std::uint32_t injectedIdx_ = 0;
    std::uint64_t commitLimit_ = 0;  ///< absolute committed-count bound (0 = none)
    std::uint64_t nextPoll_;  ///< cumulative cycle count of the next poll
    std::uint32_t fetchPc_ = 0;
    std::uint32_t ifBusy_ = 0;   ///< remaining I-cache miss stall cycles
    std::uint32_t exBusy_ = 0;   ///< remaining extra EX cycles (mul/div)
    std::uint32_t memBusy_ = 0;  ///< remaining D-cache miss stall cycles
    std::uint32_t redirectStall_ = 0;  ///< remaining post-redirect bubbles
    std::uint32_t parityStall_ = 0;    ///< remaining parity-recovery bubbles
    bool exStarted_ = false;     ///< idEx_ already executed architecturally
    bool memStarted_ = false;    ///< exMem_ already probed the D-cache
    bool flushedThisCycle_ = false;
    bool halting_ = false;       ///< exit syscall executed; drain only
    bool loadUseHazard_ = false;
    std::uint8_t hazardReg_ = 0;  ///< dest of the load in EX at cycle start
};

}  // namespace asbr
