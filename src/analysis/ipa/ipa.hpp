// Interprocedural analysis driver: SSA -> SCCP -> value-set resolution,
// iterated to a fixpoint of the indirect-jump map.
//
// Round structure (at most kMaxRounds):
//   1. build the supergraph CFG with the current resolution map (round 0:
//      empty — unresolved jalr/jr get the conservative every-entry edges);
//   2. dominators, loop forest, SSA, SCCP;
//   3. re-resolve every indirect site from the new SCCP solution; when the
//      map is unchanged the iteration is stable and stops.
// Each round's map is sound by induction (round 0 analyzes the
// conservative graph; later rounds analyze a graph refined by an
// already-sound map), so the final CFG edges over-approximate every real
// transfer and all downstream consumers stay sound.
//
// On the final graph the dense interpreter (absint) runs once more; its
// ValueAnalysis is the only source of branch verdicts, reachable blocks and
// feasible edges — the FoldLegalityVerifier, selection and the WCET engine
// consume it.  SCCP's values serve value-set resolution, the call-graph
// summaries and the SSA lints.
#pragma once

#include <cstddef>

#include "analysis/absint/absint.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/ipa/callgraph.hpp"
#include "analysis/ipa/sccp.hpp"
#include "analysis/ipa/ssa.hpp"
#include "analysis/ipa/valueset.hpp"
#include "analysis/loops.hpp"

namespace asbr::analysis::ipa {

/// Aggregate counters for the report and the regression tests.
struct IpaStats {
    std::size_t rounds = 0;
    std::size_t ssaDefs = 0;
    std::size_t ssaPhis = 0;
    std::size_t ssaUses = 0;
    std::size_t sccpIterations = 0;
    bool sccpConverged = true;
};

struct IpaAnalysis {
    Cfg cfg;  ///< final (resolution-refined) supergraph
    DominatorTree doms;
    LoopForest loops;
    SsaForm ssa;
    SccpResult sccp;
    /// Dense fixpoint on the final graph: the branch verdicts.
    ValueAnalysis values;
    IndirectResolution resolution;
    CallGraph callGraph;
    IpaStats stats;
};

/// Maximum resolution rounds before the map is frozen.
inline constexpr int kMaxRounds = 4;

/// Run the full interprocedural pipeline on `program`.
[[nodiscard]] IpaAnalysis analyzeProgram(const Program& program);

}  // namespace asbr::analysis::ipa
