// Sparse conditional constant propagation over the interval x sign domain.
//
// Classic Wegman–Zadeck structure on the SSA form (analysis/ipa/ssa): a
// CFG-edge worklist discovers executable blocks, an SSA-edge worklist
// re-evaluates only the uses of defs whose value rose, and φs join only the
// operands arriving along executable edges — so code behind a
// provably-one-sided branch contributes nothing.
//
// Its per-def values feed value-set resolution of indirect jumps
// (analysis/ipa/valueset), the call-graph summaries and the SSA lints;
// branch verdicts come from the dense engine (analysis/absint) alone.  Two
// refinements keep the values as tight as the dense engine's per-edge
// states:
//   - φ operands are refined by the predecessor's branch condition (the
//     shared refineForEdge/compare-operand logic from absint/refine.hpp)
//     before joining, recovering the dense edge refinement at join points;
//   - after the ascending fixpoint, two sparse narrowing sweeps re-evaluate
//     every def from its operands and meet the result into the stored value
//     (both sides over-approximate, so the intersection still does),
//     clawing back widening overshoot exactly like the dense engine.
//
// Termination: values only rise during the ascending phase, and a per-def
// update counter switches to interval widening past kWidenAfter
// (absint/refine.hpp), so the threshold ladder bounds every chain.  A
// global evaluation budget forces the remaining state to top
// (converged = false) on pathological graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/absint/absint.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/ipa/ssa.hpp"

namespace asbr::analysis::ipa {

struct SccpResult {
    /// Final abstract value per SSA def (bottom: never evaluated, i.e. the
    /// def's block is unreachable).
    std::vector<AbsValue> value;
    /// Executable under the sparse abstract semantics.
    std::vector<char> blockExecutable;
    /// edgeExecutable[b][i], parallel to cfg.blocks[b].succs.
    std::vector<std::vector<char>> edgeExecutable;

    std::size_t iterations = 0;  ///< instruction/φ evaluations to fixpoint
    bool converged = true;
};

/// Run SCCP to fixpoint.  `doms` and `ssa` must both come from `cfg`.
[[nodiscard]] SccpResult runSccp(const Cfg& cfg, const DominatorTree& doms,
                                 const SsaForm& ssa);

}  // namespace asbr::analysis::ipa
