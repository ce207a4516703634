// Property-based tests over randomly generated programs and parameterized
// sweeps of the ASBR/pipeline configuration space.
//
// The central invariant: for ANY program, folding ANY subset of extractable
// branches at ANY BDT update stage never changes architectural results —
// outputs, exit code, final registers — and the committed-instruction count
// drops by exactly the number of committed folds.
#include <gtest/gtest.h>

#include <map>

#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/static_predictors.hpp"
#include "mem/memory.hpp"
#include "program_gen.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "util/rng.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

struct RunResult {
    std::string output;
    std::int32_t exitCode = 0;
    ArchState finalState;
    std::uint64_t committed = 0;
    std::uint64_t folded = 0;
};

RunResult runPipelineWith(const Program& p, AsbrUnit* unit,
                          BranchPredictor& predictor) {
    Memory mem;
    mem.loadProgram(p);
    PipelineConfig cfg;
    cfg.maxCycles = 50'000'000;
    PipelineSim sim(p, mem, predictor, cfg, unit);
    const PipelineResult r = sim.run();
    return {r.output, r.exitCode, r.finalState, r.stats.committed,
            r.stats.foldedBranches};
}

// Fold a random subset of extractable branches at a random update stage and
// require bit-identical architectural behaviour.
TEST(AsbrProperty, RandomProgramsFoldWithoutSemanticChange) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        ProgramGen gen(seed * 7919);
        const std::string src = gen.generate();
        const Program p = assemble(src);

        Xorshift64 rng(seed);
        std::vector<std::uint32_t> selected;
        for (const std::uint32_t pc : allConditionalBranches(p))
            if (rng.chance(0.7)) selected.push_back(pc);
        if (selected.size() > 16) selected.resize(16);

        const auto stage = static_cast<ValueStage>(rng.below(3));
        AsbrConfig cfg;
        cfg.updateStage = stage;
        AsbrUnit unit(cfg);
        unit.loadBank(0, extractBranchInfos(p, selected));

        auto basePredictor = makeBimodal(64, 64);
        auto foldPredictor = makeBimodal(64, 64);
        const RunResult base = runPipelineWith(p, nullptr, *basePredictor);
        const RunResult folded = runPipelineWith(p, &unit, *foldPredictor);

        EXPECT_EQ(base.output, folded.output) << "seed " << seed << "\n" << src;
        EXPECT_EQ(base.exitCode, folded.exitCode) << "seed " << seed;
        for (int r = 0; r < kNumRegs; ++r)
            EXPECT_EQ(base.finalState.regs[r], folded.finalState.regs[r])
                << "seed " << seed << " reg " << r;
        EXPECT_EQ(base.committed, folded.committed + folded.folded)
            << "seed " << seed;

        // And both agree with the functional ISS.
        Memory mem;
        mem.loadProgram(p);
        FunctionalSim iss(p, mem);
        const FunctionalResult fr = iss.run(50'000'000);
        EXPECT_EQ(fr.output, base.output) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Static branch-direction verdicts vs the functional ISS: a branch the
// abstract interpreter (src/analysis/absint) calls AlwaysTaken must never be
// observed not-taken, NeverTaken never taken, and kUnreachable never
// executed at all.  This is the soundness contract the static fold class
// rests on — a violated verdict would inject the wrong instruction stream.
// ---------------------------------------------------------------------------

/// Observed directions per branch pc: bit 0 = seen not-taken, bit 1 = taken.
std::map<std::uint32_t, unsigned> observeDirections(const Program& p,
                                                    Memory& mem) {
    std::map<std::uint32_t, unsigned> seen;
    FunctionalSim sim(p, mem);
    sim.setTraceHook([&seen](const Instruction&, const StepResult& step) {
        if (step.isBranch) seen[step.pc] |= step.branchTaken ? 2u : 1u;
    });
    const FunctionalResult r = sim.run(200'000'000);
    EXPECT_TRUE(r.exited);
    return seen;
}

void expectVerdictsConsistent(const Program& p,
                              const std::map<std::uint32_t, unsigned>& seen,
                              const std::string& label) {
    const analysis::FoldLegalityVerifier verifier(p);
    const analysis::ValueAnalysis& va = verifier.values();
    EXPECT_TRUE(va.converged) << label;
    for (const auto& [pc, dirs] : seen) {
        const auto d = va.directionAt(verifier.cfg().indexOf(pc));
        EXPECT_NE(d, analysis::BranchDirection::kUnreachable)
            << label << ": branch 0x" << std::hex << pc
            << " executed but was called unreachable";
        if (d == analysis::BranchDirection::kAlwaysTaken) {
            EXPECT_EQ(dirs & 1u, 0u)
                << label << ": AlwaysTaken branch 0x" << std::hex << pc
                << " observed not-taken";
        }
        if (d == analysis::BranchDirection::kNeverTaken) {
            EXPECT_EQ(dirs & 2u, 0u)
                << label << ": NeverTaken branch 0x" << std::hex << pc
                << " observed taken";
        }
    }
}

TEST(AbsintProperty, WorkloadDirectionsNeverContradictStaticVerdicts) {
    const auto pcm = generateSpeech(1200, 17);
    for (const BenchId id : kAllBenchesExtended) {
        const Program p = buildBench(id);
        Memory mem;
        mem.loadProgram(p);
        if (benchIsEncoder(id)) {
            loadPcmInput(mem, p, pcm);
        } else {
            const BenchId enc =
                id == BenchId::kAdpcmDecode  ? BenchId::kAdpcmEncode
                : id == BenchId::kG721Decode ? BenchId::kG721Encode
                                             : BenchId::kG711Encode;
            loadCodeInput(mem, p, runEncoderRef(enc, pcm));
        }
        const auto seen = observeDirections(p, mem);
        EXPECT_FALSE(seen.empty());
        expectVerdictsConsistent(p, seen, benchName(id));
    }
}

TEST(AbsintProperty, RandomProgramDirectionsNeverContradictStaticVerdicts) {
    for (std::uint64_t seed = 500; seed < 520; ++seed) {
        ProgramGen gen(seed);
        const Program p = assemble(gen.generate());
        Memory mem;
        mem.loadProgram(p);
        const auto seen = observeDirections(p, mem);
        expectVerdictsConsistent(p, seen, "seed " + std::to_string(seed));
    }
}

// Pipeline-vs-ISS equivalence across every predictor, with random programs.
TEST(PipelineProperty, AllPredictorsAreTimingOnly) {
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        ProgramGen gen(seed);
        const Program p = assemble(gen.generate());
        Memory refMem;
        refMem.loadProgram(p);
        FunctionalSim iss(p, refMem);
        const FunctionalResult fr = iss.run(50'000'000);

        std::unique_ptr<BranchPredictor> predictors[] = {
            makeNotTaken(), std::make_unique<AlwaysTakenPredictor>(64),
            makeBimodal(16, 16), makeGshare2048()};
        for (auto& predictor : predictors) {
            const RunResult r = runPipelineWith(p, nullptr, *predictor);
            EXPECT_EQ(r.output, fr.output)
                << "seed " << seed << " predictor " << predictor->name();
            EXPECT_EQ(r.committed, fr.instructions)
                << "seed " << seed << " predictor " << predictor->name();
        }
    }
}

// ---------------------------------------------------------------------------
// Parameterized sweeps
// ---------------------------------------------------------------------------

// Fold-threshold matrix: (update stage, def-to-branch distance) -> folds?
struct ThresholdCase {
    ValueStage stage;
    int fillers;       // distance = fillers + 1
    bool shouldFold;
};

class ThresholdMatrix : public ::testing::TestWithParam<ThresholdCase> {};

TEST_P(ThresholdMatrix, FoldExactlyWhenDistanceReachesThreshold) {
    const ThresholdCase param = GetParam();
    std::string src = "main:   li   s0, 50\n";
    src += "loop:   addiu s0, s0, -1\n";
    for (int i = 0; i < param.fillers; ++i) src += "        addiu t1, t1, 1\n";
    src += "        bnez s0, loop\n";
    src += "        li v0, 1\n        li a0, 0\n        sys\n";
    const Program p = assemble(src);
    const std::uint32_t branchPc =
        kTextBase + (2 + static_cast<std::uint32_t>(param.fillers)) * 4;

    AsbrConfig cfg;
    cfg.updateStage = param.stage;
    AsbrUnit unit(cfg);
    unit.loadBank(0, extractBranchInfos(p, std::vector<std::uint32_t>{branchPc}));

    Memory mem;
    mem.loadProgram(p);
    NotTakenPredictor bp;
    PipelineConfig pcfg;
    pcfg.icache.missPenalty = 0;
    pcfg.dcache.missPenalty = 0;
    pcfg.redirectBubbles = 0;
    PipelineSim sim(p, mem, bp, pcfg, &unit);
    const PipelineResult r = sim.run();
    EXPECT_EQ(r.exitCode, 0);
    if (param.shouldFold) {
        EXPECT_GE(unit.stats().folds, 49u);
    } else {
        EXPECT_EQ(unit.stats().folds, 0u);
        EXPECT_GE(unit.stats().blockedInvalid, 49u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStagesAndDistances, ThresholdMatrix,
    ::testing::Values(
        // EX-end update: threshold 2.
        ThresholdCase{ValueStage::kExEnd, 0, false},
        ThresholdCase{ValueStage::kExEnd, 1, true},
        ThresholdCase{ValueStage::kExEnd, 2, true},
        ThresholdCase{ValueStage::kExEnd, 3, true},
        // Post-EX forwarding: threshold 3.
        ThresholdCase{ValueStage::kMemEnd, 0, false},
        ThresholdCase{ValueStage::kMemEnd, 1, false},
        ThresholdCase{ValueStage::kMemEnd, 2, true},
        ThresholdCase{ValueStage::kMemEnd, 3, true},
        // Commit update: threshold 4.
        ThresholdCase{ValueStage::kCommit, 0, false},
        ThresholdCase{ValueStage::kCommit, 1, false},
        ThresholdCase{ValueStage::kCommit, 2, false},
        ThresholdCase{ValueStage::kCommit, 3, true}),
    [](const ::testing::TestParamInfo<ThresholdCase>& info) {
        const char* stage =
            info.param.stage == ValueStage::kExEnd
                ? "ExEnd"
                : (info.param.stage == ValueStage::kMemEnd ? "MemEnd"
                                                           : "Commit");
        return std::string(stage) + "_dist" +
               std::to_string(info.param.fillers + 1);
    });

// Cache geometry sweep: a sequential sweep over the full capacity always
// misses exactly once per line, for every (size, line, assoc) combination.
struct CacheGeometry {
    std::uint32_t size;
    std::uint32_t line;
    std::uint32_t assoc;
};

class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, SequentialSweepColdMissesOnly) {
    const CacheGeometry g = GetParam();
    Cache cache({g.size, g.line, g.assoc, 10});
    for (std::uint32_t addr = 0; addr < g.size; addr += 4) cache.access(addr);
    EXPECT_EQ(cache.stats().misses, g.size / g.line);
    for (std::uint32_t addr = 0; addr < g.size; addr += 4) cache.access(addr);
    EXPECT_EQ(cache.stats().misses, g.size / g.line);  // all resident now
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(CacheGeometry{1024, 16, 1}, CacheGeometry{1024, 32, 2},
                      CacheGeometry{4096, 32, 1}, CacheGeometry{4096, 64, 4},
                      CacheGeometry{8192, 32, 2}, CacheGeometry{8192, 16, 8},
                      CacheGeometry{16384, 64, 2}),
    [](const ::testing::TestParamInfo<CacheGeometry>& info) {
        return "s" + std::to_string(info.param.size) + "_l" +
               std::to_string(info.param.line) + "_a" +
               std::to_string(info.param.assoc);
    });

// Bimodal size sweep: on a per-site-biased stream with many branch sites,
// accuracy must be monotone (within tolerance) in table size, since larger
// tables reduce destructive aliasing.
class BimodalSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

double biasedStreamAccuracy(BranchPredictor& p) {
    Xorshift64 rng(31337);
    // 600 branch sites, each with a stable direction.
    std::vector<std::uint32_t> pcs;
    std::vector<bool> bias;
    for (int i = 0; i < 600; ++i) {
        pcs.push_back(0x1000 + static_cast<std::uint32_t>(i) * 4);
        bias.push_back(rng.chance(0.5));
    }
    int correct = 0;
    const int n = 30'000;
    for (int i = 0; i < n; ++i) {
        const std::size_t k = rng.below(pcs.size());
        const bool taken = rng.chance(bias[k] ? 0.95 : 0.05);
        if (p.predict(pcs[k]).taken == taken) ++correct;
        p.update(pcs[k], taken, pcs[k] + 64);
    }
    return static_cast<double>(correct) / n;
}

TEST_P(BimodalSizeSweep, LargerTablesNotWorse) {
    const std::uint32_t counters = GetParam();
    BimodalPredictor small(counters, 64);
    BimodalPredictor big(counters * 4, 64);
    EXPECT_GE(biasedStreamAccuracy(big) + 0.02, biasedStreamAccuracy(small))
        << "counters " << counters;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BimodalSizeSweep,
                         ::testing::Values(16u, 64u, 256u, 1024u));

}  // namespace
}  // namespace asbr
