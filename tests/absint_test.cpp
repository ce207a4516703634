// Tests for the abstract-interpretation subsystem: the interval x sign
// domain, dominator tree and natural-loop detection, the value-analysis
// fixpoint (branch directions, dead arms, unreachable blocks, feasible-edge
// pruning of the reaching-producer dataflow), the static fold table and its
// AsbrUnit fetch path, the two-class selection policy, and the
// asbr.analysis_report schema round-trip.
#include <gtest/gtest.h>

#include <climits>
#include <set>

#include "analysis/absint/absint.hpp"
#include "analysis/absint/domain.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "report/analysis_report.hpp"
#include "sim/pipeline.hpp"

namespace asbr {
namespace {

using analysis::AbsValue;
using analysis::BranchDirection;
using analysis::TriBool;

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

struct Analyzed {
    Program program;
    analysis::Cfg cfg;
    analysis::DominatorTree doms;
    analysis::LoopForest loops;
    analysis::ValueAnalysis va;
};

Analyzed analyze(const std::string& src) {
    Analyzed a;
    a.program = assemble(src);
    a.cfg = analysis::buildCfg(a.program);
    a.doms = analysis::computeDominators(a.cfg);
    a.loops = analysis::computeLoops(a.cfg, a.doms);
    a.va = analysis::analyzeValues(a.cfg, a.loops);
    return a;
}

BranchDirection directionOf(const Analyzed& a, std::size_t n) {
    const std::uint32_t pc = nthBranchPc(a.program, n);
    return a.va.directionAt(a.cfg.indexOf(pc));
}

// --------------------------------------------------------------- domain ----

TEST(AbsDomainTest, NormalizationReducesComponents) {
    // A non-negative interval drops the negative sign.
    const AbsValue v = AbsValue::range(0, 10);
    EXPECT_EQ(v.signs, analysis::kSignZero | analysis::kSignPos);
    // A strictly positive interval is only positive.
    EXPECT_EQ(AbsValue::range(3, 9).signs, analysis::kSignPos);
    // Contradictory components collapse to bottom.
    AbsValue w = AbsValue::range(1, 5);
    w.signs = analysis::kSignNeg;
    // Re-normalization happens through every public constructor/operation.
    EXPECT_TRUE(w.meet(AbsValue::top()).isBottom());
}

TEST(AbsDomainTest, JoinMeetWidenBasics) {
    const AbsValue a = AbsValue::constant(2);
    const AbsValue b = AbsValue::constant(7);
    const AbsValue j = a.join(b);
    EXPECT_TRUE(j.containsValue(2));
    EXPECT_TRUE(j.containsValue(7));
    EXPECT_TRUE(j.contains(a));
    EXPECT_FALSE(j.containsValue(-1));

    // Meet of disjoint intervals is bottom; meet is exact intersection.
    EXPECT_TRUE(AbsValue::range(0, 3).meet(AbsValue::range(5, 9)).isBottom());
    const AbsValue m = AbsValue::range(0, 6).meet(AbsValue::range(4, 9));
    EXPECT_EQ(m.lo, 4);
    EXPECT_EQ(m.hi, 6);

    // Widening jumps the unstable bound past the new value and stabilizes:
    // repeatedly growing the high bound by one must climb the threshold
    // ladder to a fixpoint in a handful of steps, while the stable low
    // bound (and with it the >= 0 sign) survives every step.
    constexpr std::int64_t kMax = INT32_MAX;
    AbsValue x = AbsValue::constant(0);
    for (int i = 0; i < 64; ++i) {
        const AbsValue next =
            x.join(AbsValue::range(0, std::min(kMax, x.hi + 1)));
        const AbsValue widened = x.widen(next);
        if (widened == x) break;
        x = widened;
        ASSERT_LT(i, 63) << "widening did not terminate";
    }
    EXPECT_TRUE(x.containsValue(0));
    EXPECT_TRUE(x.containsValue(1'000'000));
    EXPECT_FALSE(x.containsValue(-1)) << "widening lost the sign bound";

    // The transfer function, by contrast, must honour two's-complement
    // wraparound: once an increment can cross INT32_MAX the positive-only
    // claim is gone.  (This is why unbounded loop counters stay kDynamic.)
    const AbsValue wrapped =
        analysis::absAluImmOp(Op::kAddiu, AbsValue::constant(INT32_MAX), 1);
    EXPECT_TRUE(wrapped.containsValue(INT32_MIN));
}

TEST(AbsDomainTest, EvalCondOverAllSixConditions) {
    const AbsValue neg = AbsValue::range(-9, -1);
    const AbsValue zero = AbsValue::constant(0);
    const AbsValue pos = AbsValue::range(1, 9);
    const AbsValue any = AbsValue::top();

    EXPECT_EQ(evalCondAbs(Cond::kEqz, zero), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kEqz, pos), TriBool::kFalse);
    EXPECT_EQ(evalCondAbs(Cond::kEqz, any), TriBool::kUnknown);
    EXPECT_EQ(evalCondAbs(Cond::kNez, neg), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kNez, zero), TriBool::kFalse);
    EXPECT_EQ(evalCondAbs(Cond::kLez, neg), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kLez, zero), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kLez, pos), TriBool::kFalse);
    EXPECT_EQ(evalCondAbs(Cond::kGtz, pos), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kGtz, neg), TriBool::kFalse);
    EXPECT_EQ(evalCondAbs(Cond::kLtz, neg), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kLtz, zero), TriBool::kFalse);
    EXPECT_EQ(evalCondAbs(Cond::kGez, pos), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kGez, zero), TriBool::kTrue);
    EXPECT_EQ(evalCondAbs(Cond::kGez, neg), TriBool::kFalse);
}

TEST(AbsDomainTest, RefineByCondPrunesTheInterval) {
    const AbsValue v = AbsValue::range(-5, 5);
    const AbsValue gtz = refineByCond(Cond::kGtz, v);
    EXPECT_EQ(gtz.lo, 1);
    EXPECT_EQ(gtz.hi, 5);
    const AbsValue lez = refineByCond(Cond::kLez, v);
    EXPECT_EQ(lez.lo, -5);
    EXPECT_EQ(lez.hi, 0);
    // No value of a positive range satisfies eqz: bottom = infeasible edge.
    EXPECT_TRUE(refineByCond(Cond::kEqz, AbsValue::range(2, 8)).isBottom());
}

TEST(AbsDomainTest, TransferMirrorsExecEdgeCases) {
    const AbsValue intMin = AbsValue::constant(INT32_MIN);
    const AbsValue minusOne = AbsValue::constant(-1);
    const AbsValue zero = AbsValue::constant(0);
    const AbsValue seven = AbsValue::constant(7);

    // exec.cpp: division by zero yields 0; INT_MIN / -1 yields INT_MIN.
    EXPECT_TRUE(absAluOp(Op::kDiv, seven, zero).containsValue(0));
    EXPECT_TRUE(absAluOp(Op::kDiv, intMin, minusOne).containsValue(INT32_MIN));
    // rem by zero yields the dividend; INT_MIN % -1 yields 0.
    EXPECT_TRUE(absAluOp(Op::kRem, seven, zero).containsValue(7));
    EXPECT_TRUE(absAluOp(Op::kRem, intMin, minusOne).containsValue(0));
    // Shift amounts are masked to 5 bits (33 == 1).
    const AbsValue sll33 =
        absAluOp(Op::kSllv, seven, AbsValue::constant(33));
    EXPECT_TRUE(sll33.containsValue(14));
    // addu wraps modulo 2^32.
    const AbsValue wrapped =
        absAluOp(Op::kAddu, AbsValue::constant(INT32_MAX),
                 AbsValue::constant(1));
    EXPECT_TRUE(wrapped.containsValue(INT32_MIN));
    // lui is an exact constant.
    const AbsValue lui = absAluImmOp(Op::kLui, AbsValue::top(), 5);
    EXPECT_TRUE(lui.isConstant());
    EXPECT_TRUE(lui.containsValue(5 << 16));
}

// ------------------------------------------------- dominators and loops ----

TEST(DominatorTest, DiamondJoinIsDominatedByTheFork) {
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 1
        beqz s0, right
left:   li   s1, 1
        j    join
right:  li   s1, 2
join:   move s2, s1
)") + kExit);
    const std::size_t fork = a.cfg.blockAt(a.program.entry);
    const std::size_t join = a.cfg.blockAt(a.program.symbol("join"));
    const std::size_t left = a.cfg.blockAt(a.program.symbol("left"));
    EXPECT_TRUE(a.doms.dominates(fork, join));
    EXPECT_TRUE(a.doms.dominates(fork, left));
    EXPECT_FALSE(a.doms.dominates(left, join));
    EXPECT_EQ(a.doms.idom[join], fork);
}

TEST(LoopTest, NestedLoopsGetDepthsAndWideningPoints) {
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 3
outer:  li   s1, 4
inner:  addiu s1, s1, -1
        bgtz s1, inner
        addiu s0, s0, -1
        bgtz s0, outer
)") + kExit);
    ASSERT_EQ(a.loops.loops.size(), 2u);
    const std::size_t innerBlock = a.cfg.blockAt(a.program.symbol("inner"));
    const std::size_t outerBlock = a.cfg.blockAt(a.program.symbol("outer"));
    EXPECT_EQ(a.loops.depthOf[innerBlock], 2u);
    EXPECT_EQ(a.loops.depthOf[outerBlock], 1u);
    EXPECT_TRUE(a.loops.isWideningPoint(innerBlock));
    EXPECT_TRUE(a.loops.isWideningPoint(outerBlock));
    // The inner loop's parent is the outer loop.
    const std::size_t innerLoop = a.loops.innermost[innerBlock];
    ASSERT_NE(innerLoop, analysis::kNoBlock);
    const std::size_t parent = a.loops.loops[innerLoop].parent;
    ASSERT_NE(parent, analysis::kNoBlock);
    EXPECT_EQ(a.loops.loops[parent].head, outerBlock);
}

// -------------------------------------------------------- value analysis ----

TEST(ValueAnalysisTest, ConstantConditionGivesStaticDirections) {
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 5
        li   s1, 0
        nop
        bgtz s0, L1       # 5 > 0: always taken
L1:     bnez s1, L2       # 0 != 0: never taken
L2:     move s2, s0
)") + kExit);
    EXPECT_TRUE(a.va.converged);
    EXPECT_EQ(directionOf(a, 0), BranchDirection::kAlwaysTaken);
    EXPECT_EQ(directionOf(a, 1), BranchDirection::kNeverTaken);
}

TEST(ValueAnalysisTest, LoopCounterBranchStaysDynamicAndConverges) {
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        nop
        nop
        bgtz s0, loop
)") + kExit);
    EXPECT_TRUE(a.va.converged);
    EXPECT_EQ(directionOf(a, 0), BranchDirection::kDynamic);
}

TEST(ValueAnalysisTest, MonotoneLoopKeepsProvableDirection) {
    // s0 is re-masked to [0, 1023] on every iteration, so its guard stays
    // always-taken even though the loop requires widening (of the s1
    // counter) to converge.  An unmasked `addiu s0, s0, 1` would NOT be
    // provable: the increment wraps at INT32_MAX, so the sound verdict for
    // an unbounded counter is kDynamic (see LoopCounterBranchStaysDynamic).
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 1
        li   s1, 8
loop:   addiu s0, s0, 1
        andi s0, s0, 1023 # bounded growth: cannot wrap negative
        addiu s1, s1, -1
        nop
        bgez s0, cont     # s0 in [0, 1023] on every iteration: always taken
cont:   bgtz s1, loop
)") + kExit);
    EXPECT_TRUE(a.va.converged);
    EXPECT_EQ(directionOf(a, 0), BranchDirection::kAlwaysTaken);
    EXPECT_EQ(directionOf(a, 1), BranchDirection::kDynamic);
}

TEST(ValueAnalysisTest, DelayedWideningProvesLoopCarriedGuard) {
    // ProgramGen(322 * 9973), verbatim.  t0 enters the loop as 0 and
    // returns as t1 - 9 = -9, so `addiu t0, t0, 12` never yields 0 and the
    // guard is always taken.  Widening the loop head on its first rise
    // sends t0 to top; one plain join keeps it at [-9, 0].
    const Analyzed a = analyze(R"(
main:   li   s7, 0
        li   s0, 7
Loop0:
        sll  t2, t0, 1
        addiu t0, t0, 12
        bnez t0, Ltrue1
        sll  t3, t3, 0
        lw   t1, scratch+40
        j Lend1
Ltrue1:
        lw   t3, scratch+32
        addiu t0, t1, -9
Lend1:
        addu s7, s7, t0
        addiu s0, s0, -1
        addiu t2, t2, 1
        addiu t3, t3, 3
        bnez s0, Loop0
        move a0, s7
        li v0, 3
        sys
        li a0, 0
        li v0, 1
        sys
        .data
scratch: .space 64
)");
    ASSERT_TRUE(isCondBranch(a.program.code[4].op));
    EXPECT_TRUE(a.va.converged);
    EXPECT_EQ(a.va.directionAt(4), BranchDirection::kAlwaysTaken);
}

TEST(ValueAnalysisTest, DelayedWideningOutlastsThreeRises) {
    // Minimised from ProgramGen(2433 * 9973 + 1).withDispatch().  t1 is 8
    // whenever the bltz runs, but the xor feeding t0 needs three plain
    // joins at the loop head to settle: widening any sooner sends t0, t1
    // and t3 to top and loses the never-taken verdict.
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 4
loop:   bnez t0, skip
        addiu t1, t3, 8
        xor  t0, t0, t1
        j    join
skip:   nop
join:   addiu t3, t0, -11
        bltz t1, neg
        addiu s1, s1, 1
neg:    addiu s0, s0, -1
        addiu t3, t3, 3
        bnez s0, loop
)") + kExit);
    EXPECT_TRUE(a.va.converged);
    EXPECT_EQ(directionOf(a, 1), BranchDirection::kNeverTaken);
    EXPECT_EQ(directionOf(a, 0), BranchDirection::kDynamic);
}

TEST(ValueAnalysisTest, DeadArmAndUnreachableBlockAreLinted) {
    const Analyzed a = analyze(std::string(R"(
main:   li   s0, 3
        nop
        nop
        bgtz s0, live     # always taken: fall-through arm is dead
dead:   li   s1, 99       # unreachable
live:   move s2, s0
)") + kExit);
    ASSERT_EQ(a.va.deadArms.size(), 1u);
    EXPECT_FALSE(a.va.deadArms[0].takenArm);  // the fall-through is dead
    const std::size_t deadBlock = a.cfg.blockAt(a.program.symbol("dead"));
    EXPECT_FALSE(a.va.reachable(deadBlock));
    EXPECT_NE(std::find(a.va.unreachableBlocks.begin(),
                        a.va.unreachableBlocks.end(), deadBlock),
              a.va.unreachableBlocks.end());
}

TEST(ValueAnalysisTest, ProvenExitHaltsThePath) {
    // After `sys` with v0 == 1 (exit) nothing executes: the trailing block
    // is unreachable even though the CFG has a fall-through edge.
    const Analyzed a = analyze(std::string(R"(
main:   li   v0, 1
        li   a0, 0
        sys
after:  li   s0, 1
        nop
        nop
        bgtz s0, after
)"));
    const std::size_t afterBlock = a.cfg.blockAt(a.program.symbol("after"));
    EXPECT_FALSE(a.va.reachable(afterBlock));
    EXPECT_EQ(a.va.directionAt(a.cfg.indexOf(nthBranchPc(a.program, 0))),
              BranchDirection::kUnreachable);
}

// ----------------------------------- feasible-edge dataflow refinement ----

TEST(RefinementTest, InfeasiblePathProducerNoLongerRejectsTheFold) {
    // The short-distance producer of s1 sits behind a never-taken branch:
    // PR 1's all-paths dataflow charges it, the pruned dataflow does not.
    const std::string src = std::string(R"(
main:   li   s0, 0
        li   s1, 5
loop:   addiu s1, s1, -1
        nop
        nop
        bnez s0, reset    # s0 == 0 always: never taken
back:   bgtz s1, loop
        j    done
reset:  addiu s1, s1, 0   # short-distance producer on the infeasible path
        j    back
done:)") + kExit;
    const Program p = assemble(src);
    const analysis::FoldLegalityVerifier verifier(p);
    analysis::VerifyConfig config;
    config.threshold = 3;

    const std::uint32_t guardPc = nthBranchPc(p, 1);  // back: bgtz s1
    const analysis::BranchVerdict v = verifier.verdictFor(guardPc, config);
    EXPECT_LT(v.unrefinedMinDistance, config.threshold)
        << "fixture lost its short infeasible path";
    EXPECT_GE(v.staticMinDistance, config.threshold)
        << "edge pruning failed to lift the distance";
    EXPECT_EQ(v.verdict, analysis::FoldLegality::kProvablySafe);

    // The win is surfaced as a refinement-win lint; the never-taken guard
    // also produces a dead-arm lint and `reset` an unreachable-block lint.
    bool sawWin = false, sawDeadArm = false, sawUnreachable = false;
    for (const analysis::StaticLint& lint : verifier.lints(config)) {
        if (lint.kind == analysis::StaticLint::Kind::kRefinementWin &&
            lint.pc == guardPc)
            sawWin = true;
        if (lint.kind == analysis::StaticLint::Kind::kDeadBranchArm)
            sawDeadArm = true;
        if (lint.kind == analysis::StaticLint::Kind::kUnreachableBlock)
            sawUnreachable = true;
    }
    EXPECT_TRUE(sawWin);
    EXPECT_TRUE(sawDeadArm);
    EXPECT_TRUE(sawUnreachable);
}

// ------------------------------------------------------ static fold path ----

TEST(StaticFoldTest, TableLookupAndStorageAccounting) {
    StaticFoldTable table;
    StaticFoldEntry e1{0x1000, true, Instruction{}, 0x2000};
    StaticFoldEntry e2{0x1010, false, Instruction{}, 0x1014};
    table.load({e1, e2});
    EXPECT_EQ(table.size(), 2u);
    ASSERT_NE(table.lookup(0x1000), nullptr);
    EXPECT_TRUE(table.lookup(0x1000)->taken);
    EXPECT_EQ(table.lookup(0x1234), nullptr);
    EXPECT_EQ(table.storageBits(), 2u * (30 + 1 + 32 + 30));
    EXPECT_THROW(table.load({e1, e1}), EnsureError);
}

TEST(StaticFoldTest, ExtractStaticFoldPicksTheDecidedArm) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 1
        nop
        nop
        bgtz s0, target
        addiu s1, s1, 1   # BFI
target: addiu s2, s2, 2   # BTI
)") + kExit);
    const std::uint32_t pc = nthBranchPc(p, 0);
    const StaticFoldEntry taken = extractStaticFold(p, pc, true);
    EXPECT_EQ(taken.replacementPc, p.symbol("target"));
    EXPECT_EQ(taken.replacement.rd, 18);  // s2
    const StaticFoldEntry notTaken = extractStaticFold(p, pc, false);
    EXPECT_EQ(notTaken.replacementPc, pc + kInstrBytes);
    EXPECT_EQ(notTaken.replacement.rd, 17);  // s1
}

TEST(StaticFoldTest, UnitFoldsFromStaticTableWithoutBdtDependence) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 1
        nop
        nop
        bgtz s0, target
        addiu s1, s1, 1
target: addiu s2, s2, 2
)") + kExit);
    const std::uint32_t pc = nthBranchPc(p, 0);
    AsbrUnit unit;
    unit.loadStaticFolds({extractStaticFold(p, pc, true)}, 1);

    // A pending producer of the condition register blocks a BIT fold; the
    // static fold must not care.
    unit.onProducerDecoded(16);  // s0
    const auto fold = unit.onFetch(pc, p.at(pc));
    ASSERT_TRUE(fold.has_value());
    EXPECT_TRUE(fold->taken);
    EXPECT_EQ(fold->replacementPc, p.symbol("target"));
    EXPECT_EQ(unit.stats().staticFolds, 1u);
    EXPECT_EQ(unit.stats().folds, 1u);
    EXPECT_EQ(unit.stats().blockedInvalid, 0u);
    EXPECT_EQ(unit.bitSlotsReclaimed(), 1u);
    EXPECT_EQ(unit.storageBits(),
              AsbrUnit().storageBits() + (30 + 1 + 32 + 30));

    // reset() clears statistics but keeps the customization (like loadBank).
    unit.reset();
    EXPECT_EQ(unit.stats().staticFolds, 0u);
    EXPECT_TRUE(unit.onFetch(pc, p.at(pc)).has_value());
}

TEST(StaticFoldTest, PipelineResultsUnchangedByStaticFolding) {
    // Folding a never-taken branch statically must not change architecture:
    // run the pipeline with and without the static fold and compare.
    const std::string src = std::string(R"(
main:   li   s0, 0
        li   s2, 0
        li   s3, 10
loop:   addiu s2, s2, 1
        nop
        nop
        bnez s0, skip     # never taken
        addiu s2, s2, 2
skip:   addiu s3, s3, -1
        bgtz s3, loop
        move a0, s2
        li   v0, 3
        sys
)") + kExit;
    const Program p = assemble(src);
    const std::uint32_t pc = nthBranchPc(p, 0);

    auto runWith = [&](bool staticFold) {
        Memory mem;
        mem.loadProgram(p);
        auto predictor = makeBimodal2048();
        AsbrUnit unit;
        if (staticFold)
            unit.loadStaticFolds({extractStaticFold(p, pc, false)});
        PipelineSim sim(p, mem, *predictor, {}, &unit);
        PipelineResult r = sim.run();
        EXPECT_TRUE(r.exited);
        return std::pair<std::string, std::uint64_t>(
            r.output, staticFold ? unit.stats().staticFolds : 0);
    };
    const auto [baseOut, baseFolds] = runWith(false);
    const auto [foldOut, foldCount] = runWith(true);
    EXPECT_EQ(baseOut, foldOut);
    EXPECT_EQ(foldCount, 10u) << "the branch executes once per iteration";
}

// ------------------------------------------------------ selection policy ----

TEST(SelectionTest, StaticVerdictsSplitTheSelection) {
    const std::string src = std::string(R"(
main:   li   s0, 0
        li   s3, 20
loop:   addiu s3, s3, -1
        nop
        nop
        bnez s0, never    # never taken, hot, distance >= 3
        nop
        nop
        bgtz s3, loop     # dynamic loop guard
never:  move a0, s3
        li   v0, 3
        sys
)") + kExit;
    const Program p = assemble(src);
    Memory mem;
    mem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, mem);

    SelectionConfig config;
    config.minExecFraction = 0.0;
    const FoldSelection selection =
        selectWithStaticVerdicts(p, profile, {}, config);

    const std::uint32_t neverPc = nthBranchPc(p, 0);
    ASSERT_EQ(selection.statics.size(), 1u);
    EXPECT_EQ(selection.statics[0].pc, neverPc);
    EXPECT_FALSE(selection.statics[0].taken);
    EXPECT_GT(selection.statics[0].execs, 0u);
    // The old policy would have given it a BIT slot; that slot is reclaimed
    // and the dynamic list no longer contains the branch.
    EXPECT_EQ(selection.bitSlotsReclaimed, 1u);
    for (const Candidate& c : selection.dynamic) EXPECT_NE(c.pc, neverPc);
    // The loop guard is still selected dynamically.
    bool guardSelected = false;
    for (const Candidate& c : selection.dynamic)
        if (c.pc == nthBranchPc(p, 1)) guardSelected = true;
    EXPECT_TRUE(guardSelected);
}

// ------------------------------------------------------- analysis report ----

TEST(AnalysisReportTest, RoundTripsThroughValidatorAndParser) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 4
loop:   addiu s0, s0, -1
        nop
        nop
        bgtz s0, loop
)") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    analysis::VerifyConfig config;
    AnalysisReportMeta meta;
    meta.benchmark = "unit-test";

    const JsonValue doc = analysisReportJson(meta, verifier, config);
    const ReportValidation valid = validate(doc, kAnalysisReportSpec);
    EXPECT_TRUE(valid.ok()) << (valid.errors.empty() ? "" : valid.errors[0]);

    // Serialized text parses back and still validates.
    const JsonParseResult parsed = parseJson(doc.dump(2));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validate(*parsed.value, kAnalysisReportSpec).ok());

    // Summary invariants hold on this known program.
    const JsonValue* summary = doc.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("branches")->asUint(), 1u);
    EXPECT_EQ(summary->find("dynamic")->asUint(), 1u);
    EXPECT_TRUE(doc.find("fixpoint")->find("converged")->asBool());
}

TEST(AnalysisReportTest, ValidatorRejectsTamperedDocuments) {
    const Program p = assemble(std::string("main:   li s0, 1\n") + kExit);
    const analysis::FoldLegalityVerifier verifier(p);
    AnalysisReportMeta meta;
    meta.benchmark = "tamper";
    JsonValue doc = analysisReportJson(meta, verifier, {});

    JsonValue bad = doc;
    bad.set("schema", JsonValue("asbr.other"));
    EXPECT_FALSE(validate(bad, kAnalysisReportSpec).ok());

    JsonValue badSummary = doc;
    JsonObject s = badSummary.find("summary")->asObject();
    for (auto& [k, v] : s)
        if (k == "statically_decided") v = JsonValue(std::uint64_t{99});
    badSummary.set("summary", JsonValue(std::move(s)));
    EXPECT_FALSE(validate(badSummary, kAnalysisReportSpec).ok());

    EXPECT_FALSE(
        validate(JsonValue("not an object"), kAnalysisReportSpec).ok());
}

}  // namespace
}  // namespace asbr
