// Tests for the interprocedural analysis engine (analysis/ipa): SSA
// construction (dominance frontiers, pruned φ placement, renaming), the
// branch verdicts the pipeline publishes, value-set resolution of
// dispatch-table jalr calls, call-graph summaries, and — the load-bearing
// part — soundness of the whole pipeline against the functional ISS: every
// observed indirect-jump target must lie inside the predicted value set, no
// observed branch outcome may contradict a static direction verdict, and
// every tested value lies inside the branch's published interval.  Runs on
// all six paper workloads plus randomly generated dispatch programs.
//
// Also covers the dominator/loop-forest behaviour on irreducible and
// self-loop CFGs, asserting the WCET engine's `irreducible` failure reason
// fires exactly when the forest contains a widening point that heads no
// natural loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asm/assembler.hpp"
#include "driver/artifacts.hpp"
#include "mem/memory.hpp"
#include "program_gen.hpp"
#include "report/ipa_report.hpp"
#include "sim/functional.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

using analysis::BranchDirection;
using analysis::Cfg;
using analysis::InstrIndex;
using analysis::kNoBlock;
namespace ipa = analysis::ipa;

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

/// The read-only two-entry dispatch table (mirrors
/// tests/fixtures/jalr_dispatch.s).
const std::string kDispatchSrc = std::string(R"(
main:   lw   t0, sel
        andi t0, t0, 1
        sll  t0, t0, 2
        la   t1, table
        addu t1, t1, t0
        lw   t2, 0(t1)
        jalr t2
        move s0, v0
)") + kExit + R"(
even:   li   v0, 2
        jr   ra
odd:    li   v0, 3
        jr   ra
        .data
sel:    .word 1
table:  .word even, odd
)";

/// Everything the ISS observed that the static pipeline makes claims about.
struct IssObservations {
    /// Indirect-control sites (jalr / non-ra jr): pc -> targets taken.
    std::map<std::uint32_t, std::set<std::uint32_t>> indirectTargets;
    std::map<std::uint32_t, bool> branchTaken;     ///< pc -> seen taken
    std::map<std::uint32_t, bool> branchNotTaken;  ///< pc -> seen not taken
    /// pc -> every value the branch's tested register held when it ran.
    std::map<std::uint32_t, std::set<std::int32_t>> branchValues;
    std::set<std::uint32_t> executedPcs;
};

IssObservations observe(const Program& program, Memory& memory) {
    IssObservations obs;
    FunctionalSim sim(program, memory);
    sim.setTraceHook([&](const Instruction& ins, const StepResult& r) {
        obs.executedPcs.insert(r.pc);
        if (ins.op == Op::kJalr ||
            (ins.op == Op::kJr && ins.rs != reg::ra)) {
            obs.indirectTargets[r.pc].insert(r.nextPc);
        }
        if (r.isBranch) {
            if (r.branchTaken)
                obs.branchTaken[r.pc] = true;
            else
                obs.branchNotTaken[r.pc] = true;
            // A branch writes no register, so the post-step state still
            // holds the value it tested.
            obs.branchValues[r.pc].insert(sim.state().reg(ins.rs));
        }
    });
    const FunctionalResult result = sim.run();
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(result.exitCode, 0);
    return obs;
}

/// The soundness contract between one IPA run and one ISS run:
///  - an observed indirect target at a *resolved* site must be predicted;
///  - AlwaysTaken forbids an observed fall-through, NeverTaken an observed
///    taken, kUnreachable any execution at all;
///  - every tested value lies inside the branch's `condAtBranch` interval,
///    which the analysis report prints and the dead-arm lint quotes.
void checkSoundness(const ipa::IpaAnalysis& ipaResult,
                    const IssObservations& obs, const std::string& label) {
    const Cfg& cfg = ipaResult.cfg;
    for (const auto& [pc, targets] : obs.indirectTargets) {
        const auto it = ipaResult.resolution.map.find(cfg.indexOf(pc));
        if (it == ipaResult.resolution.map.end()) continue;  // explicitly top
        for (const std::uint32_t target : targets) {
            const InstrIndex ti = cfg.indexOf(target);
            const auto& predicted = it->second.targets;
            EXPECT_TRUE(std::find(predicted.begin(), predicted.end(), ti) !=
                        predicted.end())
                << label << ": observed jalr/jr target 0x" << std::hex
                << target << " at pc 0x" << pc
                << " escapes the predicted value set";
        }
    }
    for (InstrIndex i = 0; i < cfg.numInstructions(); ++i) {
        if (!isCondBranch(cfg.program->code[i].op)) continue;
        const std::uint32_t pc = cfg.pcOf(i);
        const BranchDirection dir = ipaResult.values.directionAt(i);
        switch (dir) {
            case BranchDirection::kAlwaysTaken:
                EXPECT_FALSE(obs.branchNotTaken.count(pc))
                    << label << ": AlwaysTaken branch at 0x" << std::hex << pc
                    << " fell through in the ISS";
                break;
            case BranchDirection::kNeverTaken:
                EXPECT_FALSE(obs.branchTaken.count(pc))
                    << label << ": NeverTaken branch at 0x" << std::hex << pc
                    << " was taken in the ISS";
                break;
            case BranchDirection::kUnreachable:
                EXPECT_FALSE(obs.executedPcs.count(pc))
                    << label << ": unreachable branch at 0x" << std::hex << pc
                    << " executed in the ISS";
                break;
            case BranchDirection::kDynamic:
                break;
        }
        const auto seen = obs.branchValues.find(pc);
        if (seen == obs.branchValues.end()) continue;
        const analysis::AbsValue& cond = ipaResult.values.condAtBranch[i];
        for (const std::int32_t v : seen->second)
            EXPECT_TRUE(cond.containsValue(v))
                << label << ": branch at 0x" << std::hex << pc << " tested "
                << std::dec << v << ", outside its interval " << cond.str();
    }
}

/// Forest-level irreducibility: on reducible graphs every DFS retreating
/// edge is a back edge, so every widening point heads a natural loop; a
/// widening point without one pins an irreducible cycle.
bool forestSaysIrreducible(const analysis::LoopForest& forest) {
    for (std::size_t b = 0; b < forest.wideningPoint.size(); ++b) {
        if (!forest.isWideningPoint(b)) continue;
        bool headsLoop = false;
        for (const analysis::Loop& loop : forest.loops)
            if (loop.head == b) headsLoop = true;
        if (!headsLoop) return true;
    }
    return false;
}

// ------------------------------------------------------------------ SSA ----

TEST(SsaTest, SelfLoopBlockIsInItsOwnDominanceFrontier) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 5
Lself:  addiu s0, s0, -1
        nop
        nop
        bnez s0, Lself
)") + kExit);
    const Cfg cfg = analysis::buildCfg(p);
    const analysis::DominatorTree doms = analysis::computeDominators(cfg);
    const auto frontiers = ipa::dominanceFrontiers(cfg, doms);
    const std::size_t selfBlock = cfg.blockAt(p.symbol("Lself"));
    ASSERT_NE(selfBlock, kNoBlock);
    EXPECT_TRUE(std::find(frontiers[selfBlock].begin(),
                          frontiers[selfBlock].end(),
                          selfBlock) != frontiers[selfBlock].end())
        << "a self-loop block must appear in its own dominance frontier";

    // ... and the loop-carried counter needs a φ there whose arguments
    // include the def from the block's own body.
    const ipa::SsaForm ssa = ipa::buildSsa(cfg, doms);
    bool found = false;
    for (const std::uint32_t phiId : ssa.phisOf[selfBlock]) {
        const ipa::SsaPhi& phi = ssa.phis[phiId];
        if (phi.reg != p.code[cfg.indexOf(p.symbol("Lself"))].rd) continue;
        found = true;
        bool selfArg = false;
        for (const std::uint32_t arg : phi.args)
            if (arg != ipa::kNoDef && ssa.defs[arg].block == selfBlock)
                selfArg = true;
        EXPECT_TRUE(selfArg) << "loop-carried φ lost its back-edge argument";
    }
    EXPECT_TRUE(found) << "no φ for the loop counter at the self-loop head";
}

TEST(SsaTest, PrunedPhiPlacementAtDiamondJoin) {
    const Program p = assemble(std::string(R"(
main:   lw   t0, sel
        bnez t0, LA
        li   t1, 1
        j    LJ
LA:     li   t1, 2
LJ:     addu s7, t1, t1
)") + kExit + R"(
        .data
sel:    .word 0
)");
    const Cfg cfg = analysis::buildCfg(p);
    const analysis::DominatorTree doms = analysis::computeDominators(cfg);
    const ipa::SsaForm ssa = ipa::buildSsa(cfg, doms);

    const std::size_t join = cfg.blockAt(p.symbol("LJ"));
    ASSERT_EQ(ssa.phisOf[join].size(), 1u)
        << "exactly one φ (t1) must be live at the join; pruning must drop "
           "the rest";
    const ipa::SsaPhi& phi = ssa.phis[ssa.phisOf[join][0]];
    ASSERT_EQ(phi.args.size(), cfg.blocks[join].preds.size());

    // The use in the join block consumes the φ, and the φ merges the two
    // li defs (one per arm).
    const InstrIndex use = cfg.indexOf(p.symbol("LJ"));
    EXPECT_EQ(ssa.srcDef[use][0], phi.def);
    std::set<std::size_t> argBlocks;
    for (const std::uint32_t arg : phi.args) {
        ASSERT_NE(arg, ipa::kNoDef);
        EXPECT_FALSE(ssa.defs[arg].isPhi);
        argBlocks.insert(ssa.defs[arg].block);
    }
    EXPECT_EQ(argBlocks.size(), 2u);
}

TEST(SsaTest, ReadBeforeWriteResolvesToSyntheticEntryDef) {
    const Program p = assemble(std::string(R"(
main:   addu s0, t3, t3
)") + kExit);
    const Cfg cfg = analysis::buildCfg(p);
    const ipa::SsaForm ssa =
        ipa::buildSsa(cfg, analysis::computeDominators(cfg));
    const std::uint8_t t3 = p.code[0].rs;
    EXPECT_EQ(ssa.srcDef[0][0], ssa.entryDef[t3]);
    EXPECT_TRUE(ssa.defs[ssa.entryDef[t3]].isEntry);
    // The entry def records its consumer, feeding the never-written lint.
    EXPECT_FALSE(ssa.defs[ssa.entryDef[t3]].uses.empty());
}

// ------------------------------------------------------- branch verdicts ----

TEST(SccpTest, ProvesConstantGuardAlwaysTaken) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 5
        nop
        nop
        bnez s0, LT
        addiu s1, s1, 1
LT:     move s2, s0
)") + kExit);
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    const InstrIndex branch = 3;
    ASSERT_TRUE(isCondBranch(p.code[branch].op));
    EXPECT_EQ(result.values.directionAt(branch),
              BranchDirection::kAlwaysTaken);
}

TEST(SccpTest, DominatingBranchSharpensRepeatedTest) {
    // The second beqz re-tests a register a dominating branch already
    // decided: pure SSA constant propagation cannot see it, the refined
    // state the first branch's fall-through edge carries must.
    const Program p = assemble(std::string(R"(
main:   lw   s0, sel
        beqz s0, LZ
        nop
        beqz s0, LZ
        addiu s1, s1, 1
LZ:     move s2, s0
)") + kExit + R"(
        .data
sel:    .word 0
)");
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    const InstrIndex second = 3;
    ASSERT_TRUE(isCondBranch(p.code[second].op));
    EXPECT_EQ(result.values.directionAt(second), BranchDirection::kNeverTaken)
        << "on the fall-through of the first beqz, s0 is provably nonzero";
}

// ------------------------------------------------------------ value sets ----

TEST(ValueSetTest, DispatchTableCallResolvesToBothHandlers) {
    const Program p = assemble(kDispatchSrc);
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    EXPECT_EQ(result.resolution.resolvedCalls, 1u);
    EXPECT_EQ(result.resolution.tableLoads, 1u);
    EXPECT_EQ(result.resolution.unresolvedSites, 0u);
    ASSERT_EQ(result.resolution.map.size(), 1u);
    const auto& [site, resolved] = *result.resolution.map.begin();
    EXPECT_EQ(p.code[site].op, Op::kJalr);
    EXPECT_TRUE(resolved.isCall);
    const std::set<InstrIndex> targets(resolved.targets.begin(),
                                       resolved.targets.end());
    const std::set<InstrIndex> expected = {
        result.cfg.indexOf(p.symbol("even")),
        result.cfg.indexOf(p.symbol("odd"))};
    EXPECT_EQ(targets, expected);
    EXPECT_FALSE(result.cfg.hasUnresolvedIndirect);
}

TEST(ValueSetTest, ResolutionTurnsIndirectWcetBounded) {
    const Program p = assemble(kDispatchSrc);
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);

    // Without the resolution the engine must refuse (that was the pre-IPA
    // behaviour); with it the same program gets a finite bound.
    const Cfg conservative = analysis::buildCfg(p);
    const analysis::LoopForest conservativeLoops = analysis::computeLoops(
        conservative, analysis::computeDominators(conservative));
    const analysis::ValueAnalysis conservativeVa =
        analysis::analyzeValues(conservative, conservativeLoops);
    const analysis::timing::WcetEngine before(
        conservative, conservativeVa, analysis::timing::TimingCostModel{});
    EXPECT_FALSE(before.compute({}).bounded);

    const analysis::timing::WcetEngine after(
        result.cfg, result.values, analysis::timing::TimingCostModel{},
        &result.resolution.map);
    const analysis::timing::WcetResult bounded = after.compute({});
    EXPECT_TRUE(bounded.bounded) << bounded.reason;
    EXPECT_GT(bounded.cycles, 0u);
    // Every function reachable from main gets a published per-entry bound.
    EXPECT_EQ(bounded.functionCycles.size(), 3u);
}

TEST(ValueSetTest, StoreIntoTablePoisonsResolution) {
    // One store overlapping the table makes it non-read-only: the site must
    // stay conservatively unresolved (soundness over precision).
    const std::string src =
        std::string(R"(
main:   la   t3, table
        sw   t3, table
        lw   t0, sel
        andi t0, t0, 1
        sll  t0, t0, 2
        la   t1, table
        addu t1, t1, t0
        lw   t2, 0(t1)
        jalr t2
        move s0, v0
)") + kExit + R"(
even:   li   v0, 2
        jr   ra
odd:    li   v0, 3
        jr   ra
        .data
sel:    .word 1
table:  .word even, odd
)";
    const ipa::IpaAnalysis result = ipa::analyzeProgram(assemble(src));
    EXPECT_TRUE(result.resolution.map.empty());
    EXPECT_EQ(result.resolution.unresolvedSites, 1u);
    EXPECT_TRUE(result.cfg.hasUnresolvedIndirect);
}

// ------------------------------------------------------------ call graph ----

TEST(CallGraphTest, SummariesReturnValueClobberAndBottomUpOrder) {
    const Program p = assemble(std::string(R"(
main:   jal  f
        nop
        move s0, v0
)") + kExit + R"(
f:      li   v0, 7
        jr   ra
)");
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    const ipa::CallGraph& graph = result.callGraph;
    ASSERT_EQ(graph.functions.size(), 2u);
    EXPECT_FALSE(graph.recursive);

    const std::size_t mainIdx = graph.mainIndex;
    const std::size_t fIdx =
        graph.byEntry.at(result.cfg.indexOf(p.symbol("f")));
    ASSERT_NE(mainIdx, fIdx);
    ASSERT_EQ(graph.functions[mainIdx].callees.size(), 1u);
    EXPECT_EQ(graph.functions[mainIdx].callees[0], fIdx);

    const ipa::FunctionSummary& f = graph.functions[fIdx];
    EXPECT_TRUE(f.reachableFromMain);
    EXPECT_TRUE(f.returnValue.isConstant());
    EXPECT_EQ(f.returnValue.lo, 7);
    EXPECT_NE(f.clobbered & (1u << reg::v0), 0u);
    EXPECT_FALSE(f.hasUnresolvedIndirect);

    // Bottom-up: callee before caller.
    const auto pos = [&](std::size_t fn) {
        return std::find(graph.bottomUp.begin(), graph.bottomUp.end(), fn) -
               graph.bottomUp.begin();
    };
    EXPECT_LT(pos(fIdx), pos(mainIdx));

    const std::string dot = ipa::callGraphDot(graph);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

// ---------------------------------------------------------------- lints ----

TEST(LintTest, DanglingLoopBoundFiresOnlyOffLoopHeads) {
    const std::string body = R"(
loop:   addiu s0, s0, -1
        nop
        nop
        bnez s0, loop
)";
    const Program dangling = assemble(
        "main:   li   s0, 6\n        .loopbound 8\n        li s1, 0\n" +
        std::string(body) + kExit);
    const analysis::FoldLegalityVerifier bad(dangling);
    bool fired = false;
    for (const analysis::StaticLint& lint : bad.lints({}))
        if (lint.kind == analysis::StaticLint::Kind::kDanglingLoopBound)
            fired = true;
    EXPECT_TRUE(fired);
    EXPECT_TRUE(
        analysis::isErrorLint(analysis::StaticLint::Kind::kDanglingLoopBound));

    const Program anchored = assemble("main:   li   s0, 6\n        .loopbound "
                                      "8\n" +
                                      std::string(body) + kExit);
    const analysis::FoldLegalityVerifier good(anchored);
    for (const analysis::StaticLint& lint : good.lints({}))
        EXPECT_NE(lint.kind, analysis::StaticLint::Kind::kDanglingLoopBound);
}

// ---------------------------------------------- irreducible / self loops ----

TEST(IrreducibleTest, TwoEntryCycleHasNoNaturalLoopAndFailsWcet) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 4
        lw   t0, sel
        bnez t0, Lb
La:     addiu s0, s0, -1
Lb:     addiu s0, s0, -1
        bgtz s0, La
)") + kExit + R"(
        .data
sel:    .word 1
)");
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    EXPECT_TRUE(forestSaysIrreducible(result.loops));
    // Neither cycle block dominates the other, so no natural loop may claim
    // the cycle...
    for (const analysis::Loop& loop : result.loops.loops) {
        EXPECT_NE(loop.head, result.cfg.blockAt(p.symbol("La")));
        EXPECT_NE(loop.head, result.cfg.blockAt(p.symbol("Lb")));
    }
    // ... and the WCET engine must refuse with the irreducible reason, not
    // silently bound an unanalyzable shape.
    const analysis::timing::WcetEngine engine(
        result.cfg, result.values, analysis::timing::TimingCostModel{},
        &result.resolution.map);
    const analysis::timing::WcetResult wcet = engine.compute({});
    EXPECT_FALSE(wcet.bounded);
    EXPECT_NE(wcet.reason.find("irreducible"), std::string::npos)
        << wcet.reason;

    // The program still terminates — the refusal is about analyzability,
    // not semantics.
    Memory mem;
    mem.loadProgram(p);
    observe(p, mem);
}

TEST(IrreducibleTest, SelfLoopIsReducibleAndWcetBounded) {
    const Program p = assemble(std::string(R"(
main:   li   s0, 5
Lself:  addiu s0, s0, -1
        nop
        nop
        bnez s0, Lself
)") + kExit);
    const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
    EXPECT_FALSE(forestSaysIrreducible(result.loops));
    const std::size_t selfBlock = result.cfg.blockAt(p.symbol("Lself"));
    bool found = false;
    for (const analysis::Loop& loop : result.loops.loops)
        if (loop.head == selfBlock) {
            found = true;
            EXPECT_TRUE(std::find(loop.latches.begin(), loop.latches.end(),
                                  selfBlock) != loop.latches.end())
                << "a self-loop is its own latch";
        }
    EXPECT_TRUE(found);

    const analysis::timing::WcetEngine engine(
        result.cfg, result.values, analysis::timing::TimingCostModel{},
        &result.resolution.map);
    const analysis::timing::WcetResult wcet = engine.compute({});
    EXPECT_TRUE(wcet.bounded) << wcet.reason;
}

TEST(IrreducibleTest, WcetIrreducibleReasonMatchesForestOnRandomPrograms) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        ProgramGen gen(seed * 52361);
        if (seed % 2 == 0) gen.withIrreducible();
        const Program p = assemble(gen.generate());
        const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
        const analysis::timing::WcetEngine engine(
            result.cfg, result.values, analysis::timing::TimingCostModel{},
            &result.resolution.map);
        const analysis::timing::WcetResult wcet = engine.compute({});
        const bool irreducible = forestSaysIrreducible(result.loops);
        EXPECT_EQ(seed % 2 == 0, irreducible) << "seed " << seed;
        EXPECT_EQ(wcet.reason.find("irreducible") != std::string::npos,
                  irreducible)
            << "seed " << seed << ": reason '" << wcet.reason
            << "' disagrees with the loop forest";
        if (!irreducible) {
            EXPECT_TRUE(wcet.bounded) << wcet.reason;
        }
    }
}

// ------------------------------------------------------------- soundness ----

TEST(SoundnessTest, IssAgreesWithStaticClaimsOnAllWorkloads) {
    for (const BenchId id :
         {BenchId::kAdpcmEncode, BenchId::kAdpcmDecode, BenchId::kG721Encode,
          BenchId::kG721Decode, BenchId::kG711Encode, BenchId::kG711Decode}) {
        const driver::Prepared prepared = driver::prepare(id, true, 2001, 64);
        Memory memory = driver::makeMemory(prepared);
        const IssObservations obs = observe(prepared.program, memory);
        const ipa::IpaAnalysis result = ipa::analyzeProgram(prepared.program);
        EXPECT_TRUE(result.sccp.converged);
        checkSoundness(result, obs,
                       "bench " + std::to_string(static_cast<int>(id)));
    }
}

TEST(SoundnessTest, IssJalrTargetsStayInsidePredictedSets) {
    // >= 20 random dispatch programs: every one must resolve its table call
    // and every ISS-observed handler must be inside the predicted set.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        ProgramGen gen(seed * 7477);
        const Program p = assemble(gen.withDispatch().generate());
        Memory memory;
        memory.loadProgram(p);
        const IssObservations obs = observe(p, memory);
        ASSERT_FALSE(obs.indirectTargets.empty()) << "seed " << seed;

        const ipa::IpaAnalysis result = ipa::analyzeProgram(p);
        EXPECT_GE(result.resolution.resolvedCalls, 1u)
            << "seed " << seed
            << ": the read-only dispatch table must resolve";
        checkSoundness(result, obs, "seed " + std::to_string(seed));
    }
}

// ---------------------------------------------------------------- report ----

TEST(IpaReportTest, SchemaRoundTripAndByteStability) {
    const Program p = assemble(kDispatchSrc);
    const analysis::FoldLegalityVerifier verifier(p);
    const IpaReportMeta meta{"dispatch-test"};
    const JsonValue doc = ipaReportJson(meta, verifier);
    const ReportValidation validation = validate(doc, kIpaReportSpec);
    EXPECT_TRUE(validation.ok()) << (validation.errors.empty()
                                         ? ""
                                         : validation.errors.front());
    EXPECT_EQ(doc.dump(2), ipaReportJson(meta, verifier).dump(2));

    // A non-object document must be rejected outright.
    EXPECT_FALSE(validate(JsonValue("not an object"), kIpaReportSpec).ok());
}

}  // namespace
}  // namespace asbr
