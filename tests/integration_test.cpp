// Cross-module integration tests: the full compile -> profile -> select ->
// extract -> fold flow on compiled C programs, including BIT bank switching
// driven from C via the __bitbank intrinsic, realistic cache/latency
// configs, and the paper's cost argument.
#include <gtest/gtest.h>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "cc/compile.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

PipelineResult runPipe(const Program& p, BranchPredictor& bp,
                       AsbrUnit* unit = nullptr, PipelineConfig cfg = {}) {
    Memory mem;
    mem.loadProgram(p);
    PipelineSim sim(p, mem, bp, cfg, unit);
    return sim.run();
}

// End-to-end flow on a control-dominated C program.
TEST(IntegrationTest, FullAsbrFlowOnCompiledProgram) {
    const cc::Compiled compiled = cc::compile(R"(
int lfsr = 0xACE1;
int hist[4];
int next_bit() {
    int bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
    lfsr = (lfsr >> 1) | (bit << 15);
    return bit;
}
int main() {
    int ones = 0;
    int runs = 0;
    int prev = 0;
    for (int i = 0; i < 4000; i++) {
        int b = next_bit();
        int streak = b == prev;
        if (b) ones++;
        if (!streak) runs++;
        prev = b;
        hist[(ones ^ runs) & 3] += 1;
    }
    __putint(ones);
    __putchar(44);
    __putint(runs);
    return 0;
}
)");
    const Program& p = compiled.program;

    // Profile and select.
    Memory profMem;
    profMem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, profMem);
    ASSERT_GT(profile.branches.size(), 3u);

    auto reference = makeBimodal2048();
    const PipelineResult refRun = runPipe(p, *reference);
    std::map<std::uint32_t, double> accuracy;
    for (const auto& [pc, site] : refRun.stats.branchSites)
        accuracy[pc] = site.accuracy();

    SelectionConfig selCfg;
    selCfg.bitCapacity = 8;
    selCfg.minExecFraction = 0.0;
    const auto candidates = selectFoldableBranches(p, profile, accuracy, selCfg);
    ASSERT_FALSE(candidates.empty());

    // Fold them and verify against both baselines.
    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(p, candidatePcs(candidates)));
    auto aux = makeBimodal(256, 512);
    const PipelineResult folded = runPipe(p, *aux, &unit);

    EXPECT_EQ(folded.output, refRun.output);
    EXPECT_GT(unit.stats().folds, 0u);
    EXPECT_EQ(refRun.stats.committed,
              folded.stats.committed + folded.stats.foldedBranches);

    Memory issMem;
    issMem.loadProgram(p);
    FunctionalSim iss(p, issMem);
    EXPECT_EQ(iss.run().output, folded.output);
}

// The __bitbank intrinsic switches BIT banks from C at loop transitions.
TEST(IntegrationTest, BitBankSwitchingFromC) {
    const cc::Compiled compiled = cc::compile(R"(
int phase1;
int phase2;
int main() {
    __bitbank(0);
    for (int i = 0; i < 300; i++) {
        int v = (i * 13) & 7;
        int w = v * 2;
        int q = w - v;
        if (q & 1) phase1++;
    }
    __bitbank(1);
    for (int j = 0; j < 300; j++) {
        int v = (j * 29) & 15;
        int w = v * 2;
        int q = w - v;
        if (q & 2) phase2++;
    }
    __putint(phase1);
    __putchar(32);
    __putint(phase2);
    return 0;
}
)");
    const Program& p = compiled.program;
    Memory profMem;
    profMem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, profMem);

    // Split candidates between the banks by address (first loop vs second).
    SelectionConfig selCfg;
    selCfg.bitCapacity = 16;
    selCfg.minExecFraction = 0.0;
    const auto candidates = selectFoldableBranches(p, profile, {}, selCfg);
    ASSERT_GE(candidates.size(), 2u);
    std::vector<std::uint32_t> sorted = candidatePcs(candidates);
    std::sort(sorted.begin(), sorted.end());
    const std::vector<std::uint32_t> bank0(sorted.begin(),
                                           sorted.begin() + sorted.size() / 2);
    const std::vector<std::uint32_t> bank1(sorted.begin() + sorted.size() / 2,
                                           sorted.end());

    AsbrConfig cfg;
    cfg.bitCapacity = 8;
    cfg.bitBanks = 2;
    AsbrUnit unit(cfg);
    unit.loadBank(0, extractBranchInfos(p, bank0));
    unit.loadBank(1, extractBranchInfos(p, bank1));

    auto bp = makeBimodal(256, 512);
    const PipelineResult r = runPipe(p, *bp, &unit);
    auto baseline = makeBimodal(256, 512);
    const PipelineResult base = runPipe(p, *baseline);

    EXPECT_EQ(r.output, base.output);
    EXPECT_EQ(unit.stats().bankSwitches, 2u);
    EXPECT_GT(unit.stats().folds, 0u);
}

// Folding must stay semantics-preserving under harsh timing: tiny caches,
// long mul/div latencies, many redirect bubbles.
TEST(IntegrationTest, FoldingRobustUnderHarshTimingConfigs) {
    const cc::Compiled compiled = cc::compile(R"(
int data[64];
int main() {
    int acc = 1;
    for (int i = 0; i < 64; i++) data[i] = (i * 2654435761) >> 24;
    for (int round = 0; round < 40; round++) {
        for (int i = 0; i < 64; i++) {
            int v = data[i];
            int w = v * 3;
            int q = w % 7;
            if (v & 1) acc += q;
            else acc ^= v;
        }
    }
    __putint(acc);
    return 0;
}
)");
    const Program& p = compiled.program;
    Memory profMem;
    profMem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, profMem);
    SelectionConfig selCfg;
    selCfg.minExecFraction = 0.0;
    const auto candidates = selectFoldableBranches(p, profile, {}, selCfg);
    ASSERT_FALSE(candidates.empty());

    PipelineConfig harsh;
    harsh.icache = {256, 16, 1, 20};
    harsh.dcache = {256, 16, 1, 25};
    harsh.mulLatency = 9;
    harsh.divLatency = 37;
    harsh.redirectBubbles = 3;

    auto basePred = makeBimodal(64, 64);
    const PipelineResult base = runPipe(p, *basePred, nullptr, harsh);

    for (const ValueStage stage :
         {ValueStage::kExEnd, ValueStage::kMemEnd, ValueStage::kCommit}) {
        AsbrConfig cfg;
        cfg.updateStage = stage;
        AsbrUnit unit(cfg);
        unit.loadBank(0, extractBranchInfos(p, candidatePcs(candidates)));
        auto pred = makeBimodal(64, 64);
        const PipelineResult r = runPipe(p, *pred, &unit, harsh);
        EXPECT_EQ(r.output, base.output) << "stage " << static_cast<int>(stage);
        EXPECT_EQ(base.stats.committed,
                  r.stats.committed + r.stats.foldedBranches);
    }
}

// The paper's cost claim, measured: a small auxiliary predictor + ASBR beats
// the big general-purpose predictor on a hard-branch workload at a fraction
// of the storage.
TEST(IntegrationTest, SmallPredictorPlusAsbrBeatsBigPredictor) {
    const cc::Compiled compiled = cc::compile(R"(
int x = 123456789;
int hits;
int main() {
    for (int i = 0; i < 20000; i++) {
        x = x * 1103515245 + 12345;
        int bit = (x >> 16) & 1;
        int pad1 = i * 3;
        int pad2 = pad1 ^ i;
        if (bit) hits += pad2 & 7;
        else hits -= 1;
    }
    __putint(hits);
    return 0;
}
)");
    const Program& p = compiled.program;
    Memory profMem;
    profMem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, profMem);
    SelectionConfig selCfg;
    selCfg.minExecFraction = 0.0;
    const auto candidates = selectFoldableBranches(p, profile, {}, selCfg);
    ASSERT_FALSE(candidates.empty());

    auto big = makeBimodal2048();
    const PipelineResult bigRun = runPipe(p, *big);

    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(p, candidatePcs(candidates)));
    auto small = makeBimodal(256, 512);
    const PipelineResult smallRun = runPipe(p, *small, &unit);

    EXPECT_EQ(smallRun.output, bigRun.output);
    EXPECT_LT(smallRun.stats.cycles, bigRun.stats.cycles);
    EXPECT_LT(small->storageBits() + unit.storageBits(), big->storageBits());
}

// The static fold class end to end on a real workload: G.721 encode carries
// branches the abstract interpreter proves never-taken.  Folding them from
// the static table must (a) actually fire, (b) change nothing
// architecturally, and (c) cost no cycles versus the dynamic-only policy —
// the statically folded branches free BIT slots and never block.
TEST(IntegrationTest, StaticFoldsFireOnG721AtNoCycleCost) {
    const Program p = buildBench(BenchId::kG721Encode);
    const auto pcm = generateSpeech(1500, 11);

    Memory profMem;
    profMem.loadProgram(p);
    loadPcmInput(profMem, p, pcm);
    const ProgramProfile profile = profileProgram(p, profMem);

    SelectionConfig config;
    config.bitCapacity = 16;
    const FoldSelection selection =
        selectWithStaticVerdicts(p, profile, {}, config);
    ASSERT_FALSE(selection.statics.empty())
        << "g721-enc lost its statically-decided branches";

    auto run = [&](bool useStatics) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcm);
        auto predictor = makeBimodal2048();
        AsbrUnit unit;
        if (useStatics) {
            unit.loadBank(0,
                          extractBranchInfos(p, candidatePcs(selection.dynamic)));
            std::vector<StaticFoldEntry> entries;
            for (const StaticFoldCandidate& s : selection.statics)
                entries.push_back(extractStaticFold(p, s.pc, s.taken));
            unit.loadStaticFolds(std::move(entries),
                                 selection.bitSlotsReclaimed);
        } else {
            const auto dynOnly = selectFoldableBranches(p, profile, {}, config);
            unit.loadBank(0, extractBranchInfos(p, candidatePcs(dynOnly)));
        }
        PipelineSim sim(p, mem, *predictor, {}, &unit);
        const PipelineResult r = sim.run();
        EXPECT_TRUE(r.exited && r.exitCode == 0);
        return std::tuple<std::string, std::uint64_t, std::uint64_t>(
            r.output, r.stats.cycles, unit.stats().staticFolds);
    };

    const auto [baseOut, baseCycles, baseStatics] = run(false);
    const auto [out, cycles, statics] = run(true);
    EXPECT_EQ(baseStatics, 0u);
    EXPECT_GT(statics, 0u);
    EXPECT_EQ(out, baseOut);
    EXPECT_LE(cycles, baseCycles);
}

}  // namespace
}  // namespace asbr
