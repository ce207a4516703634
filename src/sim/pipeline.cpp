#include "sim/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "asbr/asbr_unit.hpp"
#include "sim/functional.hpp"
#include "util/ensure.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace asbr {

void PipelineStats::publish(MetricRegistry& registry) const {
    const auto c = [&registry](const char* name, const char* help,
                               std::uint64_t value) {
        registry.counter(name, help).add(value);
    };
    c("pipeline.cycles", "total simulated cycles", cycles);
    c("pipeline.committed", "architecturally completed instructions",
      committed);
    c("pipeline.fetched",
      "instructions entering the pipeline (incl. wrong-path, excl. folded-out "
      "branches) — the paper's pipeline-activity power proxy",
      fetched);
    c("pipeline.cond_branches",
      "executed conditional branches (incl. folded)", condBranches);
    c("pipeline.folded_branches",
      "branches resolved by the fetch customizer (ASBR folds reaching EX)",
      foldedBranches);
    c("pipeline.predicted_branches",
      "branches handled by the direction predictor", predictedBranches);
    c("pipeline.predicted_correct",
      "predictor-handled branches with a correct fetch redirect",
      predictedCorrect);
    c("pipeline.mispredicts", "control flushes (branches + jr/jalr)",
      mispredicts);
    c("pipeline.load_use_stalls", "cycles lost to the load-use interlock",
      loadUseStalls);
    c("pipeline.redirect_stall_cycles",
      "fetch bubbles after control-flow redirects", redirectStallCycles);
    c("pipeline.parity_stall_cycles",
      "fetch bubbles spent resynchronizing after ASBR parity recoveries",
      parityStallCycles);
    c("pipeline.icache_stall_cycles", "fetch cycles stalled on I-cache misses",
      icacheStallCycles);
    c("pipeline.dcache_stall_cycles", "MEM cycles stalled on D-cache misses",
      dcacheStallCycles);
    c("pipeline.muldiv_stall_cycles",
      "extra EX occupancy cycles of multi-cycle mul/div", mulDivStallCycles);
    c("sim.decode_cache_lookups",
      "in-text fetches served through the decode cache", decodeCacheLookups);
    c("sim.decode_cache_hits",
      "decode-cache lookups reusing an already-decoded micro-op record "
      "(host-speed only; simulated timing is unaffected)",
      decodeCacheHits);
    icache.publish(registry, "mem.icache");
    dcache.publish(registry, "mem.dcache");

    SiteTable& execs = registry.sites("pipeline.site.execs",
                                      "per-branch-site dynamic executions");
    SiteTable& taken =
        registry.sites("pipeline.site.taken", "per-branch-site taken count");
    SiteTable& predicted = registry.sites(
        "pipeline.site.predicted",
        "per-branch-site correct fetch redirects (excl. folded)");
    SiteTable& folded = registry.sites(
        "pipeline.site.folded", "per-branch-site customizer-resolved count");
    Histogram& takenRate = registry.histogram(
        "pipeline.site.taken_rate_dist",
        "distribution of per-site taken rates across branch sites",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
    Histogram& execDist = registry.histogram(
        "pipeline.site.exec_dist",
        "distribution of per-site dynamic execution counts",
        {1e2, 1e3, 1e4, 1e5, 1e6, 1e7});
    for (const auto& [pc, site] : branchSites) {
        execs.add(pc, site.execs);
        taken.add(pc, site.taken);
        predicted.add(pc, site.predicted);
        folded.add(pc, site.folded);
        takenRate.record(site.takenRate());
        execDist.record(static_cast<double>(site.execs));
    }
}

namespace {
/// Tracer lane indices (Tracer's default lane names match this order).
constexpr std::uint8_t kLaneIfId = 0;
constexpr std::uint8_t kLaneIdEx = 1;
constexpr std::uint8_t kLaneExMem = 2;
constexpr std::uint8_t kLaneMemWb = 3;
constexpr std::uint8_t kLaneResolve = 4;
}  // namespace

// Structured-tracing hooks (docs/tracing.md), always compiled in.  With no
// tracer attached (PipelineConfig::tracer is null, the default) each hook
// costs one pointer test, and the end-of-cycle latch snapshot in run() one
// more.  Events carry POD values only and the tracer never feeds back into
// simulated state, so cycle counts are identical with and without one
// (metrics_test pins this).
#define ASBR_TRACE(...)                                                 \
    do {                                                                \
        if (config_.tracer != nullptr)                                  \
            config_.tracer->record(TraceEvent{__VA_ARGS__});            \
    } while (false)

namespace {

/// The customizer of a run without an ASBR unit: every hook is an inline
/// no-op, so its instantiation of the cycle loop carries no customizer code
/// at all.
struct NoCustomizer {
    static std::optional<FoldOutcome> onFetch(
        std::uint32_t, const Instruction&) {
        return std::nullopt;
    }
    static void onProducerDecoded(std::uint8_t) {}
    static void onValueAvailable(std::uint8_t, std::int32_t) {}
    static void onStore(std::uint32_t, std::int32_t) {}
    static std::uint32_t takeRecoveryStall() { return 0; }
};

}  // namespace

PipelineSim::PipelineSim(const Program& program, Memory& memory,
                         BranchPredictor& predictor, const PipelineConfig& config,
                         AsbrUnit* unit)
    : program_(program),
      memory_(memory),
      predictor_(predictor),
      config_(config),
      unit_(unit),
      icache_(config.icache),
      dcache_(config.dcache),
      decode_(program),
      sites_(program.code.size()),
      nextPoll_(kWalkPollInterval) {
    state_ = resetState(program_);
    fetchPc_ = program_.entry;
    // The unit starts each simulation clean; resetting here (rather than in
    // run()) lets bounded runs resume without wiping warm BDT state.
    if (unit_ != nullptr) unit_->reset();
}

std::uint32_t PipelineSim::exOccupancy(Op op) const {
    if (op == Op::kMul || op == Op::kMulh) return config_.mulLatency;
    if (op == Op::kDiv || op == Op::kDivu || op == Op::kRem || op == Op::kRemu)
        return config_.divLatency;
    return 1;
}

BranchSiteStats& PipelineSim::site(std::uint32_t pc) {
    if (!program_.inText(pc)) return stats_.branchSites[pc];
    const std::uint32_t index = (pc - program_.textBase) / kInstrBytes;
    if (sites_[index].execs == 0) executedSites_.push_back(index);
    return sites_[index];
}

// Always inline: emitted out of line, this three-test guard costs a call at
// three stages of every cycle.
template <class Customizer>
[[gnu::always_inline]] inline void PipelineSim::emitValue(
    Customizer& customizer, const Slot& slot, ValueStage stage) {
    if (!slot.exec.write) return;
    // A loaded value first exists at MEM end, so a load is captured there
    // when the customizer's stage is earlier.
    const ValueStage first =
        slot.exec.isLoadOp ? ValueStage::kMemEnd : ValueStage::kExEnd;
    if (std::max(capture_, first) != stage) return;
    customizer.onValueAvailable(slot.exec.write->reg, slot.exec.write->value);
}

template <class Customizer>
void PipelineSim::stageWriteback(Customizer& customizer) {
    if (!memWb_->valid) return;
    ++stats_.committed;
    emitValue(customizer, *memWb_, ValueStage::kCommit);
    memWb_->valid = false;
}

template <class Customizer>
void PipelineSim::stageMemory(Customizer& customizer) {
    const Slot& slot = *exMem_;
    if (!slot.valid) return;
    if (!memStarted_) {
        memStarted_ = true;
        if (slot.exec.memAccess) {
            const std::uint32_t penalty = dcache_.access(slot.exec.memAddr);
            if (penalty > 0) {
                memBusy_ = penalty;
                stats_.dcacheStallCycles += penalty;
            }
        }
    }
    if (memBusy_ > 0) {
        --memBusy_;
        return;  // stalled; memWb_ is already drained by stageWriteback
    }
    if (slot.exec.isStoreOp)
        customizer.onStore(slot.exec.memAddr, slot.exec.storeValue);
    emitValue(customizer, slot, ValueStage::kMemEnd);
    // stageWriteback drained memWb_ this cycle: hand it the instruction and
    // take its empty slot.
    std::swap(exMem_, memWb_);
    exMem_->valid = false;
    memStarted_ = false;
}

template <class Customizer>
void PipelineSim::stageExecute(Customizer& customizer) {
    Slot& slot = *idEx_;
    if (!slot.valid) return;
    ASBR_ENSURE(!slot.outOfText,
                "executing outside the text segment (runaway control flow)");
    if (!exStarted_) {
        exStarted_ = true;
        stepDecoded(state_, memory_, *slot.dec, io_, slot.exec);
        const std::uint32_t occupancy = exOccupancy(slot.dec->ins.op);
        if (occupancy > 1) {
            exBusy_ = occupancy - 1;
            stats_.mulDivStallCycles += occupancy - 1;
        }
    }
    if (exBusy_ > 0) {
        --exBusy_;
        return;
    }
    if (exMem_->valid) return;  // structural stall: MEM is busy

    const StepResult& e = slot.exec;

    if (slot.wasFolded) {
        ++stats_.foldedBranches;
        ++stats_.condBranches;
        BranchSiteStats& folded = site(slot.foldOrigin);
        ++folded.execs;
        ++folded.folded;
        if (slot.foldTaken) ++folded.taken;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kFold,
                   .lane = kLaneResolve, .flag = slot.foldTaken,
                   .pc = slot.foldOrigin, .arg = slot.pc,
                   .name = opName(slot.dec->ins.op));
    }
    if (e.isBranch) {
        ++stats_.condBranches;
        ++stats_.predictedBranches;
        BranchSiteStats& branch = site(slot.pc);
        ++branch.execs;
        if (e.branchTaken) ++branch.taken;
        predictor_.update(slot.pc, e.branchTaken, e.branchTarget);
        const bool correct = slot.predictedNext == e.nextPc;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kBranch,
                   .lane = kLaneResolve, .flag = e.branchTaken, .pc = slot.pc,
                   .arg = e.nextPc, .name = opName(slot.dec->ins.op));
        if (correct) {
            ++stats_.predictedCorrect;
            ++branch.predicted;
        } else {
            ++stats_.mispredicts;
            ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kMispredict,
                       .lane = kLaneResolve, .flag = e.branchTaken,
                       .pc = slot.pc, .arg = e.nextPc,
                       .name = opName(slot.dec->ins.op));
            redirect(e.nextPc);
        }
    } else if (e.nextPc != slot.predictedNext) {
        // Indirect jump (jr/jalr) resolving in EX.
        ++stats_.mispredicts;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kMispredict,
                   .lane = kLaneResolve, .flag = true, .pc = slot.pc,
                   .arg = e.nextPc, .name = opName(slot.dec->ins.op));
        redirect(e.nextPc);
    }

    if (io_.exited) {
        halting_ = true;
        ifId_->valid = false;
    }

    emitValue(customizer, slot, ValueStage::kExEnd);
    std::swap(idEx_, exMem_);  // exMem_ is empty (checked above)
    idEx_->valid = false;
    exStarted_ = false;
}

const DecodedOp* PipelineSim::inject(const DecodedOp& dec) {
    DecodedOp& slot = injected_[injectedIdx_++ % injected_.size()];
    slot = dec;
    return &slot;
}

void PipelineSim::redirect(std::uint32_t target) {
    ifId_->valid = false;
    flushedThisCycle_ = true;
    fetchPc_ = target;
    ifBusy_ = 0;  // cancel any wrong-path I-cache fill in flight
    redirectStall_ = config_.redirectBubbles;
}

template <class Customizer>
void PipelineSim::stageDecode(Customizer& customizer) {
    if (!ifId_->valid || flushedThisCycle_ || halting_) return;
    if (idEx_->valid) return;  // EX occupied (multi-cycle op or structural stall)
    const DecodedOp& dec = *ifId_->dec;
    if (loadUseHazard_) {
        const SrcRegs& srcs = dec.srcs;
        // loadUseHazard_ is only set when the EX instruction at cycle start
        // was a load; hazardReg_ is its destination.
        for (int i = 0; i < srcs.count; ++i) {
            if (srcs.regs[i] != reg::zero && srcs.regs[i] == hazardReg_) {
                ++stats_.loadUseStalls;
                return;
            }
        }
    }
    if (dec.writesDest) customizer.onProducerDecoded(dec.dest);
    std::swap(ifId_, idEx_);  // idEx_ is empty (checked above)
    ifId_->valid = false;
}

template <class Customizer>
void PipelineSim::stageFetch(Customizer& customizer) {
    if (halting_ || flushedThisCycle_) return;
    Slot& slot = *ifId_;
    if (slot.valid) return;  // ID did not drain the latch
    if (redirectStall_ > 0) {
        --redirectStall_;
        ++stats_.redirectStallCycles;
        return;
    }
    if (parityStall_ > 0) {
        --parityStall_;
        ++stats_.parityStallCycles;
        return;
    }
    slot.wasFolded = false;
    slot.foldOrigin = 0;
    slot.foldTaken = false;
    if (!program_.inText(fetchPc_)) {
        // Speculative fetch past the text segment (prefetch beyond an exit
        // syscall or down a wrong path).  Deliver an inert bubble; it is an
        // error only if it reaches execute (genuine runaway control flow).
        slot.valid = true;
        slot.pc = fetchPc_;
        slot.dec = inject(decodeOne(Instruction{}, fetchPc_));  // inert nop
        slot.predictedNext = fetchPc_ + kInstrBytes;
        slot.outOfText = true;
        fetchPc_ = slot.predictedNext;
        return;
    }
    if (ifBusy_ > 0) {
        --ifBusy_;
        if (ifBusy_ > 0) {
            ++stats_.icacheStallCycles;
            return;
        }
        // Miss serviced; the instruction is delivered this cycle.
    } else {
        const std::uint32_t penalty = icache_.access(fetchPc_);
        if (penalty > 0) {
            ifBusy_ = penalty;
            ++stats_.icacheStallCycles;
            return;
        }
    }

    // Hot path: the text word at fetchPc_ was decoded when the cache was
    // bound; every fetch is an indexed read.
    const DecodedOp& cached = decode_.lookup(fetchPc_);
    slot.dec = &cached;
    if (const auto fold = customizer.onFetch(fetchPc_, cached.ins)) {
        // Accounting happens when the replacement reaches EX — fetches on a
        // wrong path are squashed and must not count.  The replacement is
        // decoded fresh: a BTI/BFI injected by the BIT is not guaranteed to
        // match the program image at replacementPc, so it must never be
        // served from (or written into) the cache.
        slot.wasFolded = true;
        slot.foldOrigin = fetchPc_;
        slot.foldTaken = fold->taken;
        slot.dec = inject(decodeOne(fold->replacement, fold->replacementPc));
    }
    // A parity recovery inside the customizer costs resync bubbles on the
    // fetches that follow (the fetched instruction itself proceeds).
    parityStall_ += customizer.takeRecoveryStall();

    slot.valid = true;
    slot.pc = slot.dec->pc;
    slot.outOfText = false;
    if (slot.dec->condBranch) {
        const Prediction p = predictor_.predict(slot.pc);
        slot.predictedNext =
            p.effectiveTaken() ? *p.target : slot.dec->fallthrough;
    } else {
        // Pre-resolved at decode time: j/jal redirect to their target,
        // everything else falls through.
        slot.predictedNext = slot.dec->fetchNext;
    }
    fetchPc_ = slot.predictedNext;
    ++stats_.fetched;
}

void PipelineSim::traceLatches() {
    const auto occupied = [this](const Slot& slot, std::uint8_t lane) {
        if (!slot.valid) return;
        config_.tracer->record(TraceEvent{.cycle = stats_.cycles,
                                          .kind = TraceKind::kStage,
                                          .lane = lane,
                                          .flag = slot.wasFolded,
                                          .pc = slot.pc,
                                          .arg = 0,
                                          .name = opName(slot.dec->ins.op)});
    };
    // End-of-cycle snapshot of the four inter-stage latches.
    occupied(*ifId_, kLaneIfId);
    occupied(*idEx_, kLaneIdEx);
    occupied(*exMem_, kLaneExMem);
    occupied(*memWb_, kLaneMemWb);
}

void PipelineSim::warmStart(const ArchState& state, IoContext io) {
    state_ = state;
    io_ = std::move(io);
    for (Slot& slot : slots_) slot.valid = false;
    fetchPc_ = state_.pc;
    commitLimit_ = 0;
    ifBusy_ = 0;
    exBusy_ = 0;
    memBusy_ = 0;
    redirectStall_ = 0;
    parityStall_ = 0;
    exStarted_ = false;
    memStarted_ = false;
    flushedThisCycle_ = false;
    halting_ = false;
    loadUseHazard_ = false;
    hazardReg_ = reg::zero;
    // Deliberately untouched: icache_/dcache_/decode_ contents, the
    // predictor, the unit's BDT/BIT state, cumulative stats_ and the poll
    // schedule — a warm start resumes the microarchitecture, not the
    // program.
}

// One loop with the stop test at its top: a chunk loop nested inside a stop
// loop made GCC -O3 spill `this` out of the fully inlined baseline loop,
// which then ran up to a sixth slower.
template <class Customizer>
bool PipelineSim::cycleLoop(Customizer& customizer, std::uint64_t pauseAt) {
    std::uint64_t stop = 0;  // the nearest stop; 0 handles the entry as one
    for (;;) {
        // The one comparison per cycle.  Between two cycles, at the stop:
        // poll, pause, or time out (the next cycle would be the first past
        // the bound); then run to the next stop.
        if (stats_.cycles >= stop) {
            if (stats_.cycles == nextPoll_) {
                nextPoll_ += kWalkPollInterval;
                if (config_.poll) config_.poll();
            }
            if (stats_.cycles >= pauseAt) return true;
            if (stats_.cycles >= config_.maxCycles)
                throw SimTimeoutError(watchdogMessage(
                    "pipeline", "cycle", config_.maxCycles, "cycles"));
            stop = std::min({pauseAt, config_.maxCycles, nextPoll_});
        }
        ++stats_.cycles;
        flushedThisCycle_ = false;
        // Snapshot for the load-use interlock: the instruction occupying EX
        // at the start of the cycle.
        loadUseHazard_ = idEx_->valid && idEx_->dec->load;
        hazardReg_ = loadUseHazard_ ? idEx_->dec->ins.rd : reg::zero;

        stageWriteback(customizer);
        stageMemory(customizer);
        stageExecute(customizer);
        stageDecode(customizer);
        stageFetch(customizer);

        if (config_.tracer != nullptr && config_.tracer->wants(stats_.cycles))
            traceLatches();

        // A spent commit budget halts fetch and drops the not-yet-executed
        // ifId_ instruction (it re-fetches on resume); in-flight EX/MEM/WB
        // work drains architecturally, so committed may overshoot slightly.
        if (commitLimit_ != 0 && stats_.committed >= commitLimit_ &&
            !halting_) {
            halting_ = true;
            ifId_->valid = false;
        }
        if (finished()) return false;
    }
}

bool PipelineSim::runUntil(std::uint64_t cycle) {
    if (finished()) return false;
    if (unit_ == nullptr) {
        NoCustomizer none;
        return cycleLoop(none, cycle);
    }
    capture_ = unit_->captureStage();
    return cycleLoop(*unit_, cycle);
}

PipelineResult PipelineSim::run(std::uint64_t maxCommits) {
    commitLimit_ = maxCommits == 0 ? 0 : stats_.committed + maxCommits;
    (void)runUntil(std::numeric_limits<std::uint64_t>::max());

    for (const std::uint32_t index : executedSites_)
        stats_.branchSites[program_.textBase + index * kInstrBytes] =
            sites_[index];
    PipelineResult result;
    stats_.icache = icache_.stats();
    stats_.dcache = dcache_.stats();
    stats_.decodeCacheLookups = decode_.stats().lookups;
    stats_.decodeCacheHits = decode_.stats().hits();
    result.stats = stats_;
    result.exited = io_.exited;
    result.exitCode = io_.exitCode;
    result.output = io_.output;
    result.finalState = state_;
    return result;
}

}  // namespace asbr
