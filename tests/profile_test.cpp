// Tests for the branch profiler and the ASBR selection policy.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "bp/bimodal.hpp"
#include "driver/artifacts.hpp"
#include "driver/names.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "program_gen.hpp"
#include "sim/functional.hpp"
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

// ------------------------------------------------ walk-kernel identity ----
//
// profileProgram and profilePredictions step through the walk kernel and
// count into per-text-word arrays.  The references are the trace-hook walks
// they replaced, which read every fact from the StepResult; both must give
// the same profiles field for field.

ProgramProfile hookProfile(const Program& program, Memory memory) {
    ProgramProfile profile;
    std::array<std::int64_t, kNumRegs> lastDef{};
    lastDef.fill(-(1LL << 40));
    std::int64_t index = 0;
    FunctionalSim sim(program, memory);
    sim.setTraceHook([&](const Instruction& ins, const StepResult& sr) {
        if (sr.isBranch) {
            BranchProfile& bp = profile.branches[sr.pc];
            bp.pc = sr.pc;
            ++bp.execs;
            if (sr.branchTaken) ++bp.taken;
            const auto distance =
                static_cast<std::uint64_t>(index - lastDef[ins.rs]);
            if (distance >= 2) ++bp.distGe2;
            if (distance >= 3) ++bp.distGe3;
            if (distance >= 4) ++bp.distGe4;
            if (distance < bp.minDistance) bp.minDistance = distance;
        }
        if (sr.write) lastDef[sr.write->reg] = index;
        ++index;
    });
    profile.instructions = sim.run().instructions;
    return profile;
}

PredictionProfile hookPredictions(const Program& program, Memory memory,
                                  BranchPredictor& predictor) {
    PredictionProfile profile;
    profile.predictorToken = predictor.token();
    predictor.reset();
    FunctionalSim sim(program, memory);
    sim.setTraceHook([&](const Instruction&, const StepResult& sr) {
        if (!sr.isBranch) return;
        const Prediction prediction = predictor.predict(sr.pc);
        const std::uint32_t predictedNext =
            prediction.effectiveTaken() ? *prediction.target : sr.pc + 4;
        SitePrediction& site = profile.sites[sr.pc];
        site.pc = sr.pc;
        ++site.execs;
        ++profile.branches;
        if (predictedNext != sr.nextPc) {
            ++site.mispredicts;
            ++profile.mispredicts;
        }
        predictor.update(sr.pc, sr.branchTaken, sr.branchTarget);
    });
    (void)sim.run();
    return profile;
}

void expectSameProfile(const ProgramProfile& got, const ProgramProfile& want,
                       const std::string& label) {
    EXPECT_EQ(got.instructions, want.instructions) << label;
    ASSERT_EQ(got.branches.size(), want.branches.size()) << label;
    for (const auto& [pc, site] : want.branches) {
        const auto it = got.branches.find(pc);
        ASSERT_NE(it, got.branches.end()) << label << " pc " << pc;
        const BranchProfile& g = it->second;
        const std::string where = label + " pc " + std::to_string(pc);
        EXPECT_EQ(g.pc, site.pc) << where;
        EXPECT_EQ(g.execs, site.execs) << where;
        EXPECT_EQ(g.taken, site.taken) << where;
        EXPECT_EQ(g.distGe2, site.distGe2) << where;
        EXPECT_EQ(g.distGe3, site.distGe3) << where;
        EXPECT_EQ(g.distGe4, site.distGe4) << where;
        EXPECT_EQ(g.minDistance, site.minDistance) << where;
    }
}

void expectSamePredictions(const PredictionProfile& got,
                           const PredictionProfile& want,
                           const std::string& what) {
    EXPECT_EQ(got.predictorToken, want.predictorToken) << what;
    EXPECT_EQ(got.branches, want.branches) << what;
    EXPECT_EQ(got.mispredicts, want.mispredicts) << what;
    ASSERT_EQ(got.sites.size(), want.sites.size()) << what;
    for (const auto& [pc, site] : want.sites) {
        const auto it = got.sites.find(pc);
        ASSERT_NE(it, got.sites.end()) << what << " pc " << pc;
        EXPECT_EQ(it->second.pc, site.pc) << what;
        EXPECT_EQ(it->second.execs, site.execs) << what << " pc " << pc;
        EXPECT_EQ(it->second.mispredicts, site.mispredicts)
            << what << " pc " << pc;
    }
}

/// Each walk kernel profile matches its trace-hook reference, and one
/// profileWalk carrying every predictor family matches the separate walks.
void expectWalksMatchHookWalks(const Program& p,
                               const std::function<Memory()>& freshMemory,
                               const std::string& label) {
    Memory memory = freshMemory();
    const ProgramProfile got = profileProgram(p, memory);
    const ProgramProfile want = hookProfile(p, freshMemory());
    EXPECT_FALSE(want.branches.empty()) << label;
    expectSameProfile(got, want, label);

    constexpr std::array kTokens = {"bimodal", "bi512", "gshare", "tage",
                                    "perceptron"};
    std::vector<PredictionProfile> separate;
    std::vector<std::unique_ptr<BranchPredictor>> riders;
    for (const char* token : kTokens) {
        const std::string what = label + " " + token;
        const auto predictor = driver::makePredictorByToken(token);
        const auto reference = driver::makePredictorByToken(token);
        Memory replayMemory = freshMemory();
        separate.push_back(profilePredictions(p, replayMemory, *predictor));
        expectSamePredictions(separate.back(),
                              hookPredictions(p, freshMemory(), *reference),
                              what);
        riders.push_back(driver::makePredictorByToken(token));
    }

    std::vector<BranchPredictor*> predictors;
    for (const auto& rider : riders) predictors.push_back(rider.get());
    Memory mergedMemory = freshMemory();
    const WalkProfiles merged = profileWalk(p, mergedMemory, predictors);
    expectSameProfile(merged.program, got, label + " one walk");
    ASSERT_EQ(merged.predictions.size(), kTokens.size()) << label;
    for (std::size_t i = 0; i < kTokens.size(); ++i)
        expectSamePredictions(merged.predictions[i], separate[i],
                              label + " one walk " + kTokens[i]);
}

TEST(ProfileWalkTest, MatchesTraceHookWalksOnEveryCodec) {
    for (const BenchId id : kAllBenchesExtended) {
        const bool g721 =
            id == BenchId::kG721Encode || id == BenchId::kG721Decode;
        const driver::Prepared prepared =
            driver::prepare(id, true, 2003, g721 ? 60 : 2'000);
        expectWalksMatchHookWalks(
            prepared.program,
            [&prepared] { return driver::makeMemory(prepared); },
            benchName(id));
    }
}

TEST(ProfileWalkTest, MatchesTraceHookWalksOnGeneratedPrograms) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        ProgramGen gen(seed * 7919);
        gen.withDispatch(seed % 3 == 0).withIrreducible(seed % 4 == 0);
        const Program p = assemble(gen.generate());
        expectWalksMatchHookWalks(p, programOnly(p),
                                  "seed " + std::to_string(seed));
    }
}

TEST(ProfileWalkTest, PollRunsEveryIntervalAndMayAbandonTheWalk) {
    const driver::Prepared prepared =
        driver::prepare(BenchId::kAdpcmEncode, true, 2003, 2'000);
    Memory memory = driver::makeMemory(prepared);
    std::uint64_t polls = 0;
    const WalkProfiles profiles = profileWalk(
        prepared.program, memory, {}, 500'000'000, [&] { ++polls; });
    const std::uint64_t instructions = profiles.program.instructions;
    EXPECT_GT(instructions, kWalkPollInterval);
    EXPECT_GE(polls, instructions / kWalkPollInterval);
    EXPECT_TRUE(profiles.predictions.empty());

    Memory again = driver::makeMemory(prepared);
    EXPECT_THROW((void)profileWalk(prepared.program, again, {}, 500'000'000,
                                   [] { throw std::runtime_error("stop"); }),
                 std::runtime_error);
}

}  // namespace
}  // namespace asbr
