// Tests for the static fold-legality subsystem: CFG construction, the
// reaching-producer dataflow, per-branch verdicts (including the paper's
// threshold boundary), BIT-geometry conflict detection, BranchInfo
// consistency checking, the selection policy knob, and agreement between
// the static verdicts and dynamically observed foldability on all four
// paper workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cfg.hpp"
#include "analysis/reaching.hpp"
#include "analysis/verify.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

using analysis::FoldLegality;
using analysis::kFarAway;

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

std::uint32_t pcAt(const Program& p, std::size_t index) {
    return p.textBase + static_cast<std::uint32_t>(index) * kInstrBytes;
}

/// PC of the n-th conditional branch in program order.
std::uint32_t nthBranchPc(const Program& p, std::size_t n) {
    for (std::size_t i = 0; i < p.code.size(); ++i)
        if (isCondBranch(p.code[i].op) && n-- == 0) return pcAt(p, i);
    ADD_FAILURE() << "program has too few branches";
    return 0;
}

ProgramProfile profileSrc(const Program& p) {
    Memory mem;
    mem.loadProgram(p);
    return profileProgram(p, mem);
}

analysis::ObservedMinDistances observedOf(const ProgramProfile& prof) {
    analysis::ObservedMinDistances observed;
    for (const auto& [pc, bp] : prof.branches)
        if (bp.execs > 0) observed.emplace(pc, bp.minDistance);
    return observed;
}

// ------------------------------------------------------------------ CFG ----

TEST(CfgTest, BlocksAndEdgesOfALoop) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        bnez s0, loop
)") + kExit);
    const analysis::Cfg cfg = analysis::buildCfg(p);

    // Blocks: [li], [addiu, bnez], [exit stub].
    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.entryBlock, cfg.blockAt(p.entry));
    const std::size_t loopBlock = cfg.blockAt(p.symbol("loop"));
    // The loop block has two successors (itself + fall-through) and two
    // predecessors (entry + itself).
    EXPECT_EQ(cfg.blocks[loopBlock].succs.size(), 2u);
    EXPECT_EQ(cfg.blocks[loopBlock].preds.size(), 2u);
    const auto& succs = cfg.blocks[loopBlock].succs;
    EXPECT_NE(std::find(succs.begin(), succs.end(), loopBlock), succs.end());
}

TEST(CfgTest, CallAndReturnEdgesAreMatched) {
    const Program p = assemble(std::string(R"(
main:   jal  helper
        move s0, v0
        jal  helper
        move s1, v0
)") + kExit + R"(
helper: li   v0, 7
        jr   ra
)");
    const analysis::Cfg cfg = analysis::buildCfg(p);
    ASSERT_EQ(cfg.callSites.size(), 2u);
    EXPECT_EQ(cfg.functionEntries.size(), 2u);  // main + helper
    EXPECT_FALSE(cfg.hasUnresolvedIndirect);

    // The helper's return block edges to both return points and nowhere
    // else.
    const std::size_t retBlock = cfg.blockAt(p.symbol("helper"));
    ASSERT_EQ(cfg.blocks[retBlock].succs.size(), 2u);
    for (const std::size_t s : cfg.blocks[retBlock].succs) {
        const Instruction& first = p.code[cfg.blocks[s].first];
        EXPECT_EQ(first.op, Op::kAddu);  // `move` expands to addu
    }
}

TEST(CfgTest, UnresolvedIndirectJumpIsFlaggedAndOverApproximated) {
    const Program p = assemble(std::string(R"(
main:   la   t0, main
        jr   t0
)") + kExit);
    const analysis::Cfg cfg = analysis::buildCfg(p);
    EXPECT_TRUE(cfg.hasUnresolvedIndirect);
    const std::size_t jrBlock = cfg.blockAt(p.symbol("main"));
    EXPECT_TRUE(cfg.blocks[jrBlock].endsInUnresolvedIndirect);
    EXPECT_FALSE(cfg.blocks[jrBlock].succs.empty());
}

// ------------------------------------------------- reaching producers ----

TEST(ReachingTest, TransferAgesAndResets) {
    constexpr std::uint8_t t1 = reg::t0 + 1;
    analysis::RegDistances d;
    d.fill(kFarAway);
    d[reg::t0] = 3;
    analysis::applyTransfer({Op::kAddiu, t1, reg::t0, 0, 1}, d);
    EXPECT_EQ(d[reg::t0], 4);        // aged
    EXPECT_EQ(d[t1], 1);             // freshly produced
    EXPECT_EQ(d[reg::s0], kFarAway); // saturated stays saturated

    // Writes to r0 are architecturally discarded, not produced.
    analysis::applyTransfer({Op::kAddiu, reg::zero, reg::t0, 0, 1}, d);
    EXPECT_EQ(d[reg::zero], kFarAway);
}

TEST(ReachingTest, DistanceSaturatesAtFarAway) {
    analysis::RegDistances d;
    d.fill(1);
    d[reg::t0] = kFarAway - 1;  // 254: one step below saturation
    const Instruction nop{Op::kNop, 0, 0, 0, 0};
    analysis::applyTransfer(nop, d);
    EXPECT_EQ(d[reg::t0], kFarAway);  // 254 -> 255 by ordinary aging
    analysis::applyTransfer(nop, d);
    EXPECT_EQ(d[reg::t0], kFarAway);  // 255 stays 255: saturated, no wrap
    // 300 further transfers must never wrap any register back to small.
    for (int i = 0; i < 300; ++i) analysis::applyTransfer(nop, d);
    for (std::size_t r = 0; r < kNumRegs; ++r) EXPECT_EQ(d[r], kFarAway);
}

TEST(ReachingTest, SaturatedDistanceStillComparesAgainstThresholds) {
    // A producer exactly kFarAway-1 instructions before the branch is
    // indistinguishable from kFarAway after one more step — both must pass
    // every realistic threshold (2..4), i.e. saturation only ever errs
    // toward "far", which is the safe direction for fold legality.
    std::string src = "main:   li   t0, 1\n";
    for (int i = 0; i < 260; ++i) src += "        nop\n";
    src += "        bgtz t0, main\n";
    const Program p = assemble(src + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    for (std::uint32_t threshold : {2u, 3u, 4u}) {
        analysis::VerifyConfig config;
        config.threshold = threshold;
        const auto v = verifier.verdictFor(nthBranchPc(p, 0), config);
        EXPECT_EQ(v.staticMinDistance, kFarAway);
        EXPECT_EQ(v.verdict, FoldLegality::kProvablySafe);
    }
}

TEST(ReachingTest, WriteToR0IsDiscardedNotProduced) {
    // `addiu zero, ...` must not count as a producer: the branch on zero
    // still sees the machine-reset distance, exactly like the hardware BDT
    // (r0 writes are architecturally discarded, see exec.cpp).
    const Program p = assemble(std::string(R"(
main:   addiu zero, t0, 5
        beqz zero, main
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    const auto v = verifier.verdictFor(nthBranchPc(p, 0), {});
    EXPECT_EQ(v.staticMinDistance, kFarAway);
    EXPECT_EQ(v.verdict, FoldLegality::kProvablySafe);
}

TEST(ReachingTest, EntryStateIsMachineReset) {
    const Program p = assemble(std::string(R"(
main:   bnez s5, main
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    // s5 is never written: the producer is "infinitely long ago" on every
    // path, exactly like the reset-state BDT.
    const auto v = verifier.verdictFor(nthBranchPc(p, 0), {});
    EXPECT_EQ(v.staticMinDistance, kFarAway);
    EXPECT_EQ(v.verdict, FoldLegality::kProvablySafe);
}

// Fixture from the issue: producer exactly at threshold-1 vs threshold.
TEST(ReachingTest, ThresholdBoundaryIsExact) {
    const Program atThreshold = assemble(std::string(R"(
main:   li   t0, 10
loop:   addiu t0, t0, -1
        nop
        nop
        bgtz t0, loop
)") + kExit);
    const Program belowThreshold = assemble(std::string(R"(
main:   li   t0, 10
loop:   addiu t0, t0, -1
        nop
        bgtz t0, loop
)") + kExit);

    const analysis::FoldLegalityVerifier okVerifier(atThreshold);
    const auto ok = okVerifier.verdictFor(nthBranchPc(atThreshold, 0), {});
    EXPECT_EQ(ok.staticMinDistance, 3);
    EXPECT_EQ(ok.verdict, FoldLegality::kProvablySafe);

    const analysis::FoldLegalityVerifier badVerifier(belowThreshold);
    const auto bad = badVerifier.verdictFor(nthBranchPc(belowThreshold, 0), {});
    EXPECT_EQ(bad.staticMinDistance, 2);  // threshold - 1
    EXPECT_EQ(bad.verdict, FoldLegality::kIllegal);
    EXPECT_NE(bad.reason.find("threshold"), std::string::npos);
}

// Fixture from the issue: the producer sits *after* the branch in the loop
// body, so the short distance only exists around the back edge.
TEST(ReachingTest, BackEdgeProducerAfterBranch) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 8
loop:   beqz t1, skip
        nop
skip:   addiu t0, t0, -1
        subu  t1, t0, t0
        bgtz t0, loop
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    // Around the back edge: subu(1) bgtz(2) -> beqz reads distance 2.  The
    // first-entry path has t1 untouched (far), so the minimum is the back
    // edge's 2.
    const auto v = verifier.verdictFor(nthBranchPc(p, 0), {});
    EXPECT_EQ(v.staticMinDistance, 2);
    EXPECT_EQ(v.verdict, FoldLegality::kIllegal);
}

// Fixture from the issue: the condition register is redefined on only one
// of two joining paths; the verdict must track the shorter (redefining)
// path.
TEST(ReachingTest, JoinTakesTheMinimumOverPaths) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 1
        li   t2, 9
        nop
        nop
        beqz t0, join
        addiu t2, zero, 3
        nop
join:   bgtz t2, main
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    // Redefining path: addiu(1) nop(2) -> bgtz sees 2.  Skipping path: the
    // `li t2, 9` def is 5+ back.  Minimum must be 2.
    const auto v = verifier.verdictFor(nthBranchPc(p, 1), {});
    EXPECT_EQ(v.staticMinDistance, 2);
    EXPECT_EQ(v.verdict, FoldLegality::kIllegal);

    // With a profile that only ever took the far path, the verdict relaxes
    // to SafeOnProfiledPaths — fold-legal on everything observed, not
    // provable.
    analysis::ObservedMinDistances observed{{v.pc, 7}};
    const auto relaxed = verifier.verdictFor(v.pc, {}, &observed);
    EXPECT_EQ(relaxed.verdict, FoldLegality::kSafeOnProfiledPaths);

    // A profile that did observe a short path keeps it Illegal.
    analysis::ObservedMinDistances shortObs{{v.pc, 2}};
    const auto still = verifier.verdictFor(v.pc, {}, &shortObs);
    EXPECT_EQ(still.verdict, FoldLegality::kIllegal);
}

// Fixture from the issue: a branch whose target leaves the text segment.
TEST(VerifierTest, BranchTargetOutsideTextIsIllegal) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 1
        nop
        nop
        nop
        bgtz t0, 20000
)") + kExit);
    const std::uint32_t branchPc = nthBranchPc(p, 0);
    EXPECT_FALSE(isExtractableBranch(p, branchPc));
    const analysis::FoldLegalityVerifier verifier(p);
    const auto v = verifier.verdictFor(branchPc, {});
    EXPECT_FALSE(v.extractable);
    EXPECT_EQ(v.verdict, FoldLegality::kIllegal);
    EXPECT_NE(v.reason.find("text segment"), std::string::npos);
}

TEST(VerifierTest, SourceLinesAreReported) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 10
loop:   addiu t0, t0, -1
        bgtz t0, loop
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    const auto v = verifier.verdictFor(nthBranchPc(p, 0), {});
    EXPECT_EQ(v.sourceLine, 4);  // 1-based line of the bgtz
}

TEST(VerifierTest, GeometryConflictsAreDetected) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 4
l1:     addiu t0, t0, -1
        nop
        nop
        bgtz t0, l1
        li   t1, 4
l2:     addiu t1, t1, -1
        nop
        nop
        bgtz t1, l2
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    const std::uint32_t b0 = nthBranchPc(p, 0);
    const std::uint32_t b1 = nthBranchPc(p, 1);

    // Fully associative with room: clean.
    const auto clean = verifier.verify(std::vector<std::uint32_t>{b0, b1}, {});
    EXPECT_TRUE(clean.conflicts.empty());
    EXPECT_TRUE(clean.ok());

    // Duplicate PC: conflict.
    const auto dup = verifier.verify(std::vector<std::uint32_t>{b0, b0}, {});
    EXPECT_EQ(dup.conflicts.size(), 1u);
    EXPECT_FALSE(dup.ok());

    // Direct-mapped with both branches indexing the same set (their word
    // addresses differ by 5, so force sets=1... use sets=5 to collide:
    // indices differ by 5 -> same set mod 5).
    analysis::VerifyConfig directMapped;
    directMapped.geometry = {5, 1};
    const auto collide =
        verifier.verify(std::vector<std::uint32_t>{b0, b1}, directMapped);
    ASSERT_EQ(collide.conflicts.size(), 1u);
    EXPECT_NE(collide.conflicts[0].find("collide"), std::string::npos);

    // Over capacity.
    analysis::VerifyConfig tiny;
    tiny.geometry = {1, 1};
    const auto over =
        verifier.verify(std::vector<std::uint32_t>{b0, b1}, tiny);
    EXPECT_FALSE(over.conflicts.empty());
}

TEST(VerifierTest, BankConsistencyAgainstExtraction) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 10
loop:   addiu t0, t0, -1
        nop
        nop
        bgtz t0, loop
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    std::vector<BranchInfo> bank =
        extractBranchInfos(p, allConditionalBranches(p));
    ASSERT_EQ(bank.size(), 1u);

    const auto good = verifier.verifyBank(bank, {});
    EXPECT_TRUE(good.inconsistencies.empty());
    EXPECT_TRUE(good.ok());

    // Tampered BTI (the instruction a fold would inject) must be caught.
    auto tampered = bank;
    tampered[0].bti = Instruction{Op::kAddiu, reg::t0 + 5, reg::t0 + 5, 0, 99};
    const auto bad = verifier.verifyBank(tampered, {});
    ASSERT_EQ(bad.inconsistencies.size(), 1u);
    EXPECT_NE(bad.inconsistencies[0].find("BTI"), std::string::npos);
    EXPECT_FALSE(bad.ok());

    // Tampered direction index.
    auto wrongReg = bank;
    wrongReg[0].conditionReg = reg::t7;
    const auto alsoBad = verifier.verifyBank(wrongReg, {});
    ASSERT_EQ(alsoBad.inconsistencies.size(), 1u);
    EXPECT_NE(alsoBad.inconsistencies[0].find("direction index"),
              std::string::npos);
}

// ------------------------------------------------- selection policy ----

TEST(SelectionTest, RequireStaticallySafeFiltersIllegalFolds) {
    // The bgtz-t2 branch sees distance 1 on even iterations (near redefine)
    // and ~5 on odd ones: foldableFraction(3) == 0.5 keeps it an ordinary
    // candidate, but the observed short path makes it statically Illegal.
    const Program p = assemble(std::string(R"(
main:   li   s0, 200
loop:   andi t1, s0, 1
        subu t2, zero, s0
        nop
        nop
        beqz t1, even
        j    check
even:   addiu t2, s0, -100
check:  bgtz t2, cont
cont:   addiu s0, s0, -1
        bgtz s0, loop
)") + kExit);
    const ProgramProfile prof = profileSrc(p);
    const std::uint32_t riskyPc = nthBranchPc(p, 1);  // bgtz t2
    ASSERT_EQ(prof.branches.at(riskyPc).minDistance, 1u);
    ASSERT_DOUBLE_EQ(prof.branches.at(riskyPc).foldableFraction(3), 0.5);

    SelectionConfig cfg;
    cfg.minExecFraction = 0.0;
    const auto loose = selectFoldableBranches(p, prof, {}, cfg);
    const auto hasRisky = [&](const std::vector<Candidate>& cs) {
        return std::any_of(cs.begin(), cs.end(), [&](const Candidate& c) {
            return c.pc == riskyPc;
        });
    };
    EXPECT_TRUE(hasRisky(loose));
    EXPECT_FALSE(loose.front().verdict.has_value());

    cfg.requireStaticallySafe = true;
    const auto strict = selectFoldableBranches(p, prof, {}, cfg);
    EXPECT_FALSE(hasRisky(strict));
    // Everything that survives carries a non-Illegal verdict.
    for (const Candidate& c : strict) {
        ASSERT_TRUE(c.verdict.has_value());
        EXPECT_NE(*c.verdict, FoldLegality::kIllegal);
    }
    // The provably-safe beqz-t1 branch (def 4 ahead) must survive.
    EXPECT_TRUE(std::any_of(strict.begin(), strict.end(),
                            [&](const Candidate& c) {
                                return c.pc == nthBranchPc(p, 0);
                            }));
}

// ------------------------------------------- workload agreement gate ----

// The static verdicts must agree with dynamically observed foldability on
// all four paper workloads: every branch the profile sees as 100% foldable
// at threshold 3 is ProvablySafe, and (soundness) every ProvablySafe
// branch was 100% foldable in the profile.
TEST(VerifierIntegrationTest, VerdictsAgreeWithDynamicFoldability) {
    constexpr std::uint32_t kThreshold = 3;
    const auto pcm = generateSpeech(1500, 11);
    for (const BenchId bench : kAllBenches) {
        SCOPED_TRACE(benchName(bench));
        const Program p = buildBench(bench);
        Memory mem;
        mem.loadProgram(p);
        if (benchIsEncoder(bench)) {
            loadPcmInput(mem, p, pcm);
        } else {
            const BenchId encoder = bench == BenchId::kAdpcmDecode
                                        ? BenchId::kAdpcmEncode
                                        : BenchId::kG721Encode;
            loadCodeInput(mem, p, runEncoderRef(encoder, pcm));
        }
        const ProgramProfile prof = profileProgram(p, mem);
        ASSERT_GT(prof.branches.size(), 4u);
        const auto observed = observedOf(prof);

        const analysis::FoldLegalityVerifier verifier(p);
        analysis::VerifyConfig config;
        config.threshold = kThreshold;

        for (const auto& [pc, bp] : prof.branches) {
            if (!isExtractableBranch(p, pc)) continue;
            const auto v = verifier.verdictFor(pc, config, &observed);
            const bool fullyFoldable = bp.minDistance >= kThreshold;
            if (fullyFoldable) {
                EXPECT_EQ(v.verdict, FoldLegality::kProvablySafe)
                    << "pc 0x" << std::hex << pc << std::dec << " line "
                    << p.sourceLine(pc) << ": dynamically 100% foldable (min "
                    << bp.minDistance << ") but static verdict is "
                    << analysis::foldLegalityName(v.verdict) << " ("
                    << v.reason << ")";
            } else {
                // Observed a short path: the static minimum can never
                // exceed an observed distance.
                EXPECT_LT(v.staticMinDistance, kThreshold)
                    << "pc 0x" << std::hex << pc;
                EXPECT_NE(v.verdict, FoldLegality::kProvablySafe);
            }
            if (v.verdict == FoldLegality::kProvablySafe) {
                EXPECT_GE(bp.minDistance, kThreshold);
            }
        }

        // The strict selection never emits an Illegal branch into the BIT,
        // and the resulting bank is loadable and conflict-free.
        SelectionConfig selCfg;
        selCfg.minExecFraction = 0.0;
        selCfg.requireStaticallySafe = true;
        const auto candidates = selectFoldableBranches(p, prof, {}, selCfg);
        ASSERT_FALSE(candidates.empty());
        const auto bank = extractBranchInfos(p, candidatePcs(candidates));
        const auto report = verifier.verifyBank(bank, config, &observed);
        EXPECT_TRUE(report.ok());
        for (const auto& b : report.branches)
            EXPECT_NE(b.verdict, FoldLegality::kIllegal);
    }
}

}  // namespace
}  // namespace asbr
