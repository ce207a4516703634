#include "analysis/ipa/ipa.hpp"

namespace asbr::analysis::ipa {

IpaAnalysis analyzeProgram(const Program& program) {
    IpaAnalysis a;
    IndirectMap resolved;

    for (int round = 0;; ++round) {
        a.stats.rounds = static_cast<std::size_t>(round) + 1;
        a.cfg = buildCfg(program, resolved.empty() ? nullptr : &resolved);
        a.doms = computeDominators(a.cfg);
        a.loops = computeLoops(a.cfg, a.doms);
        a.ssa = buildSsa(a.cfg, a.doms);
        a.sccp = runSccp(a.cfg, a.doms, a.ssa);
        if (round >= kMaxRounds) break;  // freeze: analysis matches `resolved`
        IndirectResolution res = resolveIndirects(a.cfg, a.ssa, a.sccp);
        const bool stable = res.map == resolved;
        a.resolution = std::move(res);
        if (stable) break;
        resolved = a.resolution.map;
    }

    a.values = analyzeValues(a.cfg, a.loops);
    a.callGraph = buildCallGraph(a.cfg, a.ssa, a.sccp, a.resolution.map);
    a.stats.ssaDefs = a.ssa.defs.size();
    a.stats.ssaPhis = a.ssa.numPhis();
    a.stats.ssaUses = a.ssa.numUses();
    a.stats.sccpIterations = a.sccp.iterations;
    a.stats.sccpConverged = a.sccp.converged;
    return a;
}

}  // namespace asbr::analysis::ipa
