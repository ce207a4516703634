// Timing and functional-equivalence tests for the 5-stage pipeline, and
// for its pause (runUntil) and poll.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/static_predictors.hpp"
#include "driver/artifacts.hpp"
#include "driver/engine.hpp"
#include "mem/memory.hpp"
#include "report/report.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

/// Perfect-cache configuration for exact-cycle assertions.
PipelineConfig perfectCaches() {
    PipelineConfig cfg;
    cfg.icache.missPenalty = 0;
    cfg.dcache.missPenalty = 0;
    cfg.mulLatency = 1;
    cfg.divLatency = 1;
    cfg.redirectBubbles = 0;  // pure structural 2-cycle mispredict penalty
    return cfg;
}

PipelineResult runPipe(const std::string& src, BranchPredictor& bp,
                       const PipelineConfig& cfg = perfectCaches()) {
    const Program p = assemble(src);
    Memory mem;
    mem.loadProgram(p);
    PipelineSim sim(p, mem, bp, cfg);
    return sim.run();
}

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

TEST(PipelineTest, StraightLineCpiApproachesOne) {
    NotTakenPredictor bp;
    // 16 independent instructions + 3 exit instructions.
    std::string src = "main:\n";
    for (int i = 0; i < 16; ++i) src += "  addiu t0, t0, 1\n";
    src += kExit;
    const PipelineResult r = runPipe(src, bp);
    EXPECT_EQ(r.stats.committed, 19u);
    // N instructions through a 5-stage pipe: N + 4 cycles.
    EXPECT_EQ(r.stats.cycles, 19u + 4u);
}

TEST(PipelineTest, AluForwardingAvoidsStalls) {
    NotTakenPredictor bp;
    // Chain of dependent ALU ops: full forwarding means no stalls.
    const PipelineResult r = runPipe(std::string(R"(
main:   li   t0, 1
        addu t1, t0, t0
        addu t2, t1, t1
        addu t3, t2, t2
)") + kExit, bp);
    EXPECT_EQ(r.stats.cycles, 7u + 4u);
    EXPECT_EQ(r.stats.loadUseStalls, 0u);
}

TEST(PipelineTest, LoadUseStallsOneCycle) {
    NotTakenPredictor bp;
    const std::string dependent = std::string(R"(
main:   lw   t1, 0(gp)
        addu t2, t1, t1
)") + kExit;
    const std::string independent = std::string(R"(
main:   lw   t1, 0(gp)
        addu t2, t3, t3
)") + kExit;
    const PipelineResult dep = runPipe(dependent, bp);
    const PipelineResult ind = runPipe(independent, bp);
    EXPECT_EQ(dep.stats.loadUseStalls, 1u);
    EXPECT_EQ(ind.stats.loadUseStalls, 0u);
    EXPECT_EQ(dep.stats.cycles, ind.stats.cycles + 1);
}

TEST(PipelineTest, LoadUseWithOneInterveningInstructionNoStall) {
    NotTakenPredictor bp;
    const PipelineResult r = runPipe(std::string(R"(
main:   lw   t1, 0(gp)
        addiu t5, t5, 1
        addu t2, t1, t1
)") + kExit, bp);
    EXPECT_EQ(r.stats.loadUseStalls, 0u);
}

TEST(PipelineTest, TakenBranchMispredictCostsTwoCycles) {
    NotTakenPredictor bp;
    const PipelineResult taken = runPipe(std::string(R"(
main:   li   t0, 1
        bnez t0, target
        nop
target:
)") + kExit, bp);
    NotTakenPredictor bp2;
    const PipelineResult notTaken = runPipe(std::string(R"(
main:   li   t0, 0
        bnez t0, target
        nop
target:
)") + kExit, bp2);
    // Same committed count modulo the skipped nop.
    EXPECT_EQ(taken.stats.committed + 1, notTaken.stats.committed);
    EXPECT_EQ(taken.stats.mispredicts, 1u);
    EXPECT_EQ(notTaken.stats.mispredicts, 0u);
    // taken: one fewer commit (-1 cycle) but a 2-cycle flush.
    EXPECT_EQ(taken.stats.cycles, notTaken.stats.cycles + 1);
}

TEST(PipelineTest, DirectJumpsHaveNoPenalty) {
    NotTakenPredictor bp;
    const PipelineResult r = runPipe(std::string(R"(
main:   j    l1
l0:     j    l2
l1:     j    l0
l2:
)") + kExit, bp);
    EXPECT_EQ(r.stats.committed, 6u);
    EXPECT_EQ(r.stats.cycles, 6u + 4u);
    EXPECT_EQ(r.stats.mispredicts, 0u);
}

TEST(PipelineTest, IndirectJumpCostsTwoCycles) {
    NotTakenPredictor bp;
    const PipelineResult r = runPipe(std::string(R"(
main:   jal  callee
)") + kExit + R"(
callee: jr   ra
)", bp);
    // jal main->callee: no penalty.  jr callee->back: 2-cycle flush.
    EXPECT_EQ(r.stats.committed, 5u);
    EXPECT_EQ(r.stats.mispredicts, 1u);
    EXPECT_EQ(r.stats.cycles, 5u + 4u + 2u);
}

TEST(PipelineTest, BimodalLearnsLoopBranch) {
    auto bp = makeBimodal2048();
    const PipelineResult r = runPipe(std::string(R"(
main:   li   t0, 100
loop:   addiu t0, t0, -1
        bnez t0, loop
)") + kExit, *bp);
    // 100 branch executions: 99 taken, 1 exit.  After warmup the predictor
    // is right nearly always.
    EXPECT_EQ(r.stats.condBranches, 100u);
    EXPECT_GE(r.stats.predictedCorrect, 95u);
    const auto& site = r.stats.branchSites.begin()->second;
    EXPECT_EQ(site.execs, 100u);
    EXPECT_EQ(site.taken, 99u);
}

TEST(PipelineTest, MulDivOccupancy) {
    NotTakenPredictor bp;
    PipelineConfig cfg = perfectCaches();
    cfg.mulLatency = 4;
    const PipelineResult withMul = runPipe(std::string(R"(
main:   li   t0, 7
        mul  t1, t0, t0
        addu t2, t1, t1
)") + kExit, bp, cfg);
    cfg.mulLatency = 1;
    NotTakenPredictor bp2;
    const PipelineResult fastMul = runPipe(std::string(R"(
main:   li   t0, 7
        mul  t1, t0, t0
        addu t2, t1, t1
)") + kExit, bp2, cfg);
    EXPECT_EQ(withMul.stats.cycles, fastMul.stats.cycles + 3);
    EXPECT_EQ(withMul.stats.mulDivStallCycles, 3u);
}

TEST(PipelineTest, IcacheMissStallsFetch) {
    NotTakenPredictor bp;
    PipelineConfig cfg = perfectCaches();
    cfg.icache.missPenalty = 8;
    const PipelineResult r = runPipe("main:" + std::string(kExit), bp, cfg);
    // 3 instructions in one line: exactly one cold miss.
    EXPECT_EQ(r.stats.icache.misses, 1u);
    EXPECT_EQ(r.stats.icacheStallCycles, 8u);
    EXPECT_EQ(r.stats.cycles, 3u + 4u + 8u);
}

TEST(PipelineTest, DcacheMissStallsMemory) {
    NotTakenPredictor bp;
    PipelineConfig cfg = perfectCaches();
    cfg.dcache.missPenalty = 6;
    const PipelineResult r = runPipe(std::string(R"(
main:   lw   t0, 0(gp)
        lw   t1, 0(gp)
)") + kExit, bp, cfg);
    EXPECT_EQ(r.stats.dcache.misses, 1u);  // second access hits
    EXPECT_EQ(r.stats.dcacheStallCycles, 6u);
    EXPECT_EQ(r.stats.cycles, 5u + 4u + 6u);
}

TEST(PipelineTest, OutputAndExitCodeMatchFunctional) {
    const std::string src = R"(
main:   li   s0, 5
        li   s1, 0
loop:   addu s1, s1, s0
        addiu s0, s0, -1
        bnez s0, loop
        move a0, s1
        li   v0, 3
        sys               # print 15
        move a0, s1
        li   v0, 1
        sys
)";
    const Program p = assemble(src);
    Memory m1, m2;
    m1.loadProgram(p);
    m2.loadProgram(p);
    FunctionalSim fsim(p, m1);
    const FunctionalResult fr = fsim.run();
    auto bp = makeGshare2048();
    PipelineSim psim(p, m2, *bp);
    const PipelineResult pr = psim.run();
    EXPECT_EQ(pr.output, fr.output);
    EXPECT_EQ(pr.output, "15");
    EXPECT_EQ(pr.exitCode, fr.exitCode);
    EXPECT_EQ(pr.stats.committed, fr.instructions);
    for (int r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(pr.finalState.regs[r], fsim.state().regs[r]) << "reg " << r;
}

// Differential test on a branchy memory-heavy program (GCD + store log).
TEST(PipelineTest, DifferentialGcdProgram) {
    const std::string src = R"(
        .data
log:    .space 256
        .text
main:   li   s0, 252
        li   s1, 105
        la   s2, log
gcd:    beqz s1, done
        rem  t0, s0, s1
        move s0, s1
        move s1, t0
        sw   s0, 0(s2)
        addiu s2, s2, 4
        j    gcd
done:   move a0, s0
        li   v0, 3
        sys
        li   v0, 1
        sys
)";
    const Program p = assemble(src);
    Memory m1, m2;
    m1.loadProgram(p);
    m2.loadProgram(p);
    FunctionalSim fsim(p, m1);
    const FunctionalResult fr = fsim.run();
    auto bp = makeBimodal2048();
    PipelineSim psim(p, m2, *bp, PipelineConfig{});
    const PipelineResult pr = psim.run();
    EXPECT_EQ(fr.output, "21");  // gcd(252, 105)
    EXPECT_EQ(pr.output, fr.output);
    EXPECT_EQ(pr.stats.committed, fr.instructions);
    // Memory side effects identical.
    const std::uint32_t logAddr = p.symbol("log");
    for (std::uint32_t off = 0; off < 256; off += 4)
        EXPECT_EQ(m2.read32(logAddr + off), m1.read32(logAddr + off));
}

TEST(PipelineTest, PredictorAccuracyStatsConsistent) {
    auto bp = makeBimodal2048();
    const PipelineResult r = runPipe(std::string(R"(
main:   li   t0, 50
loop:   addiu t0, t0, -1
        bnez t0, loop
)") + kExit, *bp);
    EXPECT_EQ(r.stats.predictedBranches, r.stats.condBranches);
    EXPECT_EQ(r.stats.predictedCorrect + r.stats.mispredicts,
              r.stats.predictedBranches);
    EXPECT_GT(r.stats.predictorAccuracy(), 0.9);
}

TEST(PipelineTest, RunawayProgramThrows) {
    NotTakenPredictor bp;
    const Program p = assemble("main: j main\n");
    Memory mem;
    mem.loadProgram(p);
    PipelineConfig cfg = perfectCaches();
    cfg.maxCycles = 10'000;
    PipelineSim sim(p, mem, bp, cfg);
    EXPECT_THROW(sim.run(), EnsureError);
}

TEST(PipelineTest, FetchOutsideTextThrows) {
    NotTakenPredictor bp;
    // Falls off the end of text (no exit syscall).
    const Program p = assemble("main: nop\n");
    Memory mem;
    mem.loadProgram(p);
    PipelineSim sim(p, mem, bp, perfectCaches());
    EXPECT_THROW(sim.run(), EnsureError);
}

// ------------------------------------------------------- pause and poll ----

/// A run's result plus, as report bytes, every pipeline, cache and per-site
/// counter and the unit's asbr.* metrics.
struct Outcome {
    PipelineResult result;
    std::string report;
};

void expectSameOutcome(const Outcome& got, const Outcome& want,
                       const std::string& what) {
    EXPECT_EQ(got.report, want.report) << what;
    EXPECT_EQ(got.result.exited, want.result.exited) << what;
    EXPECT_EQ(got.result.exitCode, want.result.exitCode) << what;
    EXPECT_EQ(got.result.output, want.result.output) << what;
    EXPECT_EQ(got.result.finalState.regs, want.result.finalState.regs) << what;
    EXPECT_EQ(got.result.finalState.pc, want.result.finalState.pc) << what;
}

/// Roughly 110k instructions per codec.
std::size_t smallSamples(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return 1'000;
        case BenchId::kAdpcmDecode: return 1'400;
        case BenchId::kG721Encode: return 30;
        case BenchId::kG721Decode: return 32;
        case BenchId::kG711Encode: return 800;
        case BenchId::kG711Decode: return 2'000;
    }
    return 0;
}

TEST(PipelinePauseTest, PausedRunResumesBitIdenticallyOnEveryCodec) {
    driver::SimEngine engine;
    for (const BenchId id : kAllBenchesExtended) {
        for (const bool asbr : {false, true}) {
            driver::SimJob job;
            job.workload = id;
            job.samples = smallSamples(id);
            job.asbr = asbr;
            const auto workload = engine.workloadFor(job);
            const driver::Prepared& prepared = workload->prepared();
            std::shared_ptr<const driver::SelectionArtifacts> selection;
            if (asbr) selection = engine.selectionFor(job);
            const std::string what =
                std::string(benchName(id)) + (asbr ? " asbr" : " baseline");

            // Pause at each of `pauses` in turn, expecting runUntil to return
            // `paused`, then run() to the end.
            const auto runWithPauses = [&](const std::vector<std::uint64_t>&
                                               pauses,
                                           bool paused) {
                Memory memory = driver::makeMemory(prepared);
                auto bp = makeBimodal2048();
                std::unique_ptr<AsbrUnit> unit;
                if (selection != nullptr) unit = selection->makeUnit(false);
                PipelineSim sim(prepared.program, memory, *bp,
                                PipelineConfig{}, unit.get());
                for (const std::uint64_t cycle : pauses) {
                    EXPECT_EQ(sim.runUntil(cycle), paused)
                        << what << " cycle " << cycle;
                    if (paused) {
                        EXPECT_EQ(sim.stats().cycles, cycle) << what;
                    }
                }
                Outcome out{sim.run(), {}};
                out.report = simReportJson(makeSimReport(RunMeta{},
                                                         out.result.stats,
                                                         nullptr, unit.get()))
                                 .dump(2);
                return out;
            };

            const Outcome once = runWithPauses({}, true);
            ASSERT_TRUE(once.result.exited) << what;
            if (asbr) {
                EXPECT_GT(once.result.stats.foldedBranches, 0u) << what;
            }
            const std::uint64_t total = once.result.stats.cycles;
            ASSERT_GT(total, kWalkPollInterval + 2) << what;
            std::vector<std::uint64_t> pauses = {
                0, 1, 2, 3, 17, kWalkPollInterval - 1, kWalkPollInterval,
                total / 2, total - 1};
            std::sort(pauses.begin(), pauses.end());
            expectSameOutcome(runWithPauses(pauses, true), once,
                              what + " paused");
            // A program that finishes before its pause simulates no extra
            // cycle, however often it is asked to go on.
            expectSameOutcome(
                runWithPauses({total, total + 1, total + 1000}, false), once,
                what + " finished first");
        }
    }
}

TEST(PipelinePauseTest, ThrowingPollStopsTheRunAtItsFirstPoll) {
    struct Abandoned {};
    const Program p = assemble("main: j main\n");  // never exits
    Memory mem;
    mem.loadProgram(p);
    NotTakenPredictor bp;
    PipelineConfig cfg = perfectCaches();
    cfg.poll = [] { throw Abandoned{}; };
    PipelineSim sim(p, mem, bp, cfg);
    EXPECT_THROW(sim.run(), Abandoned);
    EXPECT_EQ(sim.stats().cycles, kWalkPollInterval);
}

}  // namespace
}  // namespace asbr
