// Tests for the branch profiler and the ASBR selection policy.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "asm/assembler.hpp"
#include "bp/bimodal.hpp"
#include "driver/artifacts.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "program_gen.hpp"
#include "sim/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

ProgramProfile profileSrc(const Program& p) {
    Memory mem;
    mem.loadProgram(p);
    return profileProgram(p, mem);
}

TEST(ProfilerTest, CountsExecsAndTaken) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    const ProgramProfile prof = profileSrc(p);
    ASSERT_EQ(prof.branches.size(), 1u);
    const BranchProfile& bp = prof.branches.begin()->second;
    EXPECT_EQ(bp.pc, kTextBase + 2 * 4);
    EXPECT_EQ(bp.execs, 10u);
    EXPECT_EQ(bp.taken, 9u);
    EXPECT_DOUBLE_EQ(bp.takenRate(), 0.9);
}

TEST(ProfilerTest, DistanceDistribution) {
    // Producer immediately before the branch: distance 1 everywhere.
    const Program tight = assemble(std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    const BranchProfile t = profileSrc(tight).branches.begin()->second;
    EXPECT_EQ(t.minDistance, 1u);
    EXPECT_EQ(t.distGe2, 0u);
    EXPECT_EQ(t.distGe3, 0u);
    EXPECT_EQ(t.distGe4, 0u);
    EXPECT_DOUBLE_EQ(t.foldableFraction(3), 0.0);

    // Two fillers: distance 3.
    const Program spaced = assemble(std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 1
        bnez s0, loop
)") + kExit);
    ProgramProfile prof = profileSrc(spaced);
    const BranchProfile s =
        prof.branches.at(kTextBase + 4 * 4);
    EXPECT_EQ(s.minDistance, 3u);
    EXPECT_EQ(s.distGe2, 10u);
    EXPECT_EQ(s.distGe3, 10u);
    EXPECT_EQ(s.distGe4, 0u);
    EXPECT_DOUBLE_EQ(s.foldableFraction(2), 1.0);
    EXPECT_DOUBLE_EQ(s.foldableFraction(4), 0.0);
}

TEST(ProfilerTest, NeverWrittenRegisterIsAlwaysFoldable) {
    const Program p = assemble(std::string(R"(
main:   bnez s5, skip       # s5 never written: defined at reset
        nop
skip:
)") + kExit);
    const BranchProfile bp = profileSrc(p).branches.begin()->second;
    EXPECT_EQ(bp.distGe4, 1u);
    EXPECT_GT(bp.minDistance, 1000u);
}

TEST(ProfilerTest, InstructionCountMatchesFunctionalRun) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 5
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    const ProgramProfile prof = profileSrc(p);
    EXPECT_EQ(prof.instructions, 1u + 5 + 5 + 3);
}

TEST(SelectionTest, RanksByExpectedBenefit) {
    // Two branches with the same distance: the frequent, hard-to-predict one
    // must rank first.
    const Program p = assemble(std::string(R"(
main:   li   s0, 100
outer:  andi t0, s0, 3
        addiu t1, t1, 1
        addiu t2, t2, 1
        bnez t0, skip       # hard-ish branch, 100 execs
        addiu t3, t3, 1
skip:   addiu s0, s0, -1
        addiu t4, t4, 1
        addiu t5, t5, 1
        bnez s0, outer      # easy branch (always taken until the end)
)") + kExit);
    const std::uint32_t hardPc = kTextBase + 4 * 4;
    const std::uint32_t easyPc = kTextBase + 9 * 4;
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile prof = profileProgram(p, mem);

    std::map<std::uint32_t, double> accuracy{{hardPc, 0.6}, {easyPc, 0.99}};
    SelectionConfig cfg;
    cfg.threshold = 3;
    cfg.bitCapacity = 16;
    cfg.minExecFraction = 0.0;
    const auto cands = selectFoldableBranches(p, prof, accuracy, cfg);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].pc, hardPc);
    EXPECT_EQ(cands[1].pc, easyPc);
    EXPECT_GT(cands[0].score, cands[1].score);
    EXPECT_DOUBLE_EQ(cands[0].foldableFraction, 1.0);
}

TEST(SelectionTest, CapacityTruncates) {
    std::string src = "main:   li   s0, 50\nouter:\n";
    // Eight foldable branches in one loop.
    for (int b = 0; b < 8; ++b) {
        src += "        andi t0, s0, " + std::to_string(b + 1) + "\n";
        src += "        addiu t1, t1, 1\n        addiu t2, t2, 1\n";
        src += "        bnez t0, skip" + std::to_string(b) + "\n";
        src += "        addiu t3, t3, 1\nskip" + std::to_string(b) + ":\n";
    }
    src += "        addiu s0, s0, -1\n        addiu t4, t4, 1\n";
    src += "        addiu t5, t5, 1\n        bnez s0, outer\n";
    src += kExit;
    const Program p = assemble(src);
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile prof = profileProgram(p, mem);
    SelectionConfig cfg;
    cfg.bitCapacity = 4;
    cfg.minExecFraction = 0.0;
    const auto cands = selectFoldableBranches(p, prof, {}, cfg);
    EXPECT_EQ(cands.size(), 4u);
}

TEST(SelectionTest, UnfoldableBranchesFiltered) {
    // Distance-1 branch cannot be selected at any threshold.
    const Program p = assemble(std::string(R"(
main:   li   s0, 50
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile prof = profileProgram(p, mem);
    SelectionConfig cfg;
    cfg.minExecFraction = 0.0;
    EXPECT_TRUE(selectFoldableBranches(p, prof, {}, cfg).empty());
}

TEST(SelectionTest, RareBranchesFiltered) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 1000
loop:   addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 1
        bnez s0, loop
        bnez s7, loop       # executes once; s7 never written
)") + kExit);
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile prof = profileProgram(p, mem);
    SelectionConfig cfg;
    cfg.minExecFraction = 0.01;  // 1% of ~4000 instructions
    const auto cands = selectFoldableBranches(p, prof, {}, cfg);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].pc, kTextBase + 4 * 4);
}

TEST(SelectionTest, ThresholdValidation) {
    const Program p = assemble("main: nop\n li v0, 1\n li a0, 0\n sys\n");
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile prof = profileProgram(p, mem);
    SelectionConfig cfg;
    cfg.threshold = 5;
    EXPECT_THROW(selectFoldableBranches(p, prof, {}, cfg), EnsureError);
}

// ------------------------------------------- reference-accuracy replay ----
//
// Branch selection reads the bimodal-2048 reference predictor's per-site
// accuracy from profilePredictions' replay of the ISS branch stream, not from
// a pipeline run.  PipelineSim runs EX, where the predictor updates, before
// IF, where it predicts, in every cycle, so a branch fetched two or more
// committed instructions after an older branch sees that branch's update,
// just as the replay does.  The only ordering under which the two can
// differ: two conditional branches adjacent in the committed stream that
// share a bimodal-2048 counter or BTB-2048 line.  The younger one is
// fetched while the older one is still in ID, so the pipeline predicts it
// before the update the replay has already applied.  Sharing means equal PCs
// modulo 8 KiB.  Equal PCs cannot be adjacent in a terminating program (a
// branch taken to itself re-tests unchanged registers forever), and no
// program here has 8 KiB of text — each case asserts it.

/// Per-site (executions, mispredicts).
using SiteCounts =
    std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>>;

constexpr std::uint32_t kSharedIndexPeriod = 2048 * 4;  // bytes

SiteCounts pipelineSites(const Program& p, Memory memory) {
    auto predictor = makeBimodal2048();
    PipelineSim sim(p, memory, *predictor);
    const PipelineResult r = sim.run();
    SiteCounts out;
    for (const auto& [pc, site] : r.stats.branchSites)
        out[pc] = {site.execs, site.execs - site.predicted};
    return out;
}

SiteCounts replaySites(const Program& p, Memory memory) {
    auto predictor = makeBimodal2048();
    const PredictionProfile profile = profilePredictions(p, memory, *predictor);
    SiteCounts out;
    for (const auto& [pc, site] : profile.sites)
        out[pc] = {site.execs, site.mispredicts};
    return out;
}

/// `freshMemory` returns a new image holding the program and its input.
void expectReplayMatchesPipeline(const Program& p,
                                 const std::function<Memory()>& freshMemory,
                                 const std::string& label) {
    ASSERT_LT(p.code.size() * kInstrBytes, kSharedIndexPeriod) << label;
    const SiteCounts pipeline = pipelineSites(p, freshMemory());
    EXPECT_FALSE(pipeline.empty()) << label;
    EXPECT_EQ(pipeline, replaySites(p, freshMemory())) << label;
}

std::function<Memory()> programOnly(const Program& p) {
    return [&p] {
        Memory memory;
        memory.loadProgram(p);
        return memory;
    };
}

TEST(ReferenceReplayTest, MatchesPipelineOnEveryCodec) {
    for (const std::uint64_t seed : {2001u, 2002u}) {
        for (const BenchId id : kAllBenchesExtended) {
            // Inputs of 0.3M-0.8M instructions each.
            const bool g721 =
                id == BenchId::kG721Encode || id == BenchId::kG721Decode;
            const driver::Prepared prepared =
                driver::prepare(id, true, seed, g721 ? 160 : 6'000);
            expectReplayMatchesPipeline(
                prepared.program,
                [&prepared] { return driver::makeMemory(prepared); },
                std::string(benchName(id)) + " seed " + std::to_string(seed));
        }
    }
}

TEST(ReferenceReplayTest, MatchesPipelineOnGeneratedPrograms) {
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
        ProgramGen gen(seed * 6151);
        gen.withDispatch(seed % 3 == 0).withIrreducible(seed % 4 == 0);
        const Program p = assemble(gen.generate());
        expectReplayMatchesPipeline(p, programOnly(p),
                                    "seed " + std::to_string(seed));
    }
}

TEST(ReferenceReplayTest, MatchesPipelineOnTwoInstructionLoop) {
    // The tightest legal loop: each instance of the branch is fetched in the
    // cycle its previous instance executes.
    const Program p = assemble(std::string(R"(
main:   li   s0, 40
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    expectReplayMatchesPipeline(p, programOnly(p), "two-instruction loop");
}

}  // namespace
}  // namespace asbr
