// Forward abstract interpreter over the interprocedural CFG.
//
// Runs the interval x sign domain (absint/domain.hpp) to a fixpoint over
// `Cfg`, widening at the retreating-edge targets recorded by the loop pass
// (analysis/loops.hpp) so the ascending phase terminates on real workloads,
// then applying a short bounded narrowing phase (x := x meet F(x) in RPO)
// to claw back precision the widening jumps gave away.  A widening point
// joins plainly until its entry state has risen more than kWidenAfter times
// (absint/refine.hpp), the same delay SCCP gives each def.  This is the
// analysis's only branch-verdict engine; analysis/ipa/ipa.hpp runs it on
// the resolution-refined graph.
//
// The entry state is precise, not top: both simulators reset to the same
// deterministic machine state (all registers 0, sp = kStackTop,
// gp = dataBase + 0x8000 — see sim/functional.cpp and sim/pipeline.cpp), so
// assuming it abstractly is sound.  Branch outgoing edges refine the tested
// register by the branch condition; a refinement to bottom proves the edge
// infeasible.  A `sys` whose v0 is provably Syscall::kExit halts the path.
//
// Outputs, all derived from the final fixpoint:
//  - a static direction verdict per conditional branch (AlwaysTaken /
//    NeverTaken / Dynamic / Unreachable) — the fold classes selection and
//    the ASBR unit consume;
//  - a feasible-edge mask used to re-run the PR 1 reaching-producer
//    analysis with infeasible edges pruned (sharper back-edge meets);
//  - lints: abstractly-unreachable blocks and provably-dead branch arms.
//
// If the iteration budget is ever exhausted (pathological irreducible
// graphs), remaining states are forced to top and `converged` is cleared;
// every verdict degrades to Dynamic, so downstream stays sound.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "analysis/absint/domain.hpp"
#include "analysis/cfg.hpp"
#include "analysis/loops.hpp"

namespace asbr::analysis {

/// Abstract machine state: one value per architectural register.
using RegState = std::array<AbsValue, kNumRegs>;

/// Static direction verdict for one conditional branch.
enum class BranchDirection : std::uint8_t {
    kAlwaysTaken,   ///< condition provably true whenever the branch executes
    kNeverTaken,    ///< condition provably false whenever the branch executes
    kDynamic,       ///< both directions possible (or analysis gave up)
    kUnreachable,   ///< the branch can never execute
};

[[nodiscard]] const char* branchDirectionName(BranchDirection d);

/// A provably-dead branch arm: the branch can execute, but one of its two
/// outgoing edges never can.
struct DeadArmLint {
    InstrIndex branch = 0;  ///< instruction index of the branch
    bool takenArm = false;  ///< true: the taken edge is dead; false: fall-through
};

struct ValueAnalysis {
    /// Abstract state at each block entry (bottom state: all registers
    /// bottom) — only meaningful for reachable blocks.
    std::vector<RegState> blockIn;
    /// Reachable under the *abstract* semantics (subset of graph
    /// reachability: infeasible edges and proven exits prune paths).
    std::vector<char> blockReachable;
    /// feasibleEdge[b][i]: can control ever flow along cfg.blocks[b].succs[i]?
    /// Parallel to each block's successor list.
    std::vector<std::vector<char>> feasibleEdge;
    /// Per instruction index; meaningful only at conditional branches
    /// (kUnreachable elsewhere).
    std::vector<BranchDirection> branchDir;
    /// Abstract value of the tested register at each conditional branch
    /// (bottom elsewhere); feeds diagnostics and the analysis report.
    std::vector<AbsValue> condAtBranch;

    /// Lints.
    std::vector<std::size_t> unreachableBlocks;  ///< sorted block ids
    std::vector<DeadArmLint> deadArms;           ///< sorted by branch index

    bool converged = true;     ///< false: iteration budget hit, states forced top
    std::size_t iterations = 0;  ///< block transfers executed to fixpoint

    [[nodiscard]] bool reachable(std::size_t block) const {
        return blockReachable[block] != 0;
    }
    [[nodiscard]] BranchDirection directionAt(InstrIndex idx) const {
        return branchDir[idx];
    }
};

/// Run the abstract interpreter to fixpoint.  `loops` must come from the
/// same `cfg` (its widening points gate where widening applies).
[[nodiscard]] ValueAnalysis analyzeValues(const Cfg& cfg,
                                          const LoopForest& loops);

}  // namespace asbr::analysis
