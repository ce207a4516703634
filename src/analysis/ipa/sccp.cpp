#include "analysis/ipa/sccp.hpp"

#include <algorithm>
#include <deque>

#include "analysis/absint/refine.hpp"

namespace asbr::analysis::ipa {

namespace {

struct Engine {
    const Cfg& cfg;
    const DominatorTree& doms;
    const SsaForm& ssa;
    SccpResult& out;

    std::vector<std::uint16_t> raises;
    std::vector<EdgeRefinement> refinement;    ///< per block, cached
    std::vector<std::vector<std::size_t>> succIndexOf;  ///< [b][predSlot]
    std::deque<std::pair<std::size_t, std::size_t>> cfgWork;  ///< (b, succIdx)
    std::deque<std::uint32_t> ssaWork;
    std::vector<char> onSsaWork;
    RegState entry;
    std::size_t budget = 0;
    bool blown = false;

    Engine(const Cfg& c, const DominatorTree& d, const SsaForm& s,
           SccpResult& o)
        : cfg(c), doms(d), ssa(s), out(o) {}

    [[nodiscard]] AbsValue valOf(std::uint32_t def) const {
        return def == kNoDef ? AbsValue::top() : out.value[def];
    }
    /// Operand value for refinement state: bottom (not yet evaluated)
    /// degrades to top so the refinement stays a sound over-approximation.
    [[nodiscard]] AbsValue valOrTop(std::uint32_t def) const {
        const AbsValue v = valOf(def);
        return v.isBottom() ? AbsValue::top() : v;
    }

    void pushSsa(std::uint32_t def) {
        if (!onSsaWork[def]) {
            onSsaWork[def] = 1;
            ssaWork.push_back(def);
        }
    }

    /// Ascending update: join (or widen, past the per-def cap) the fresh
    /// value into the stored one; uses re-evaluate on change.
    void setValue(std::uint32_t def, const AbsValue& fresh) {
        AbsValue& cur = out.value[def];
        const AbsValue joined = cur.join(fresh);
        const AbsValue next =
            raises[def] > kWidenAfter ? cur.widen(joined) : joined;
        if (next == cur) return;
        cur = next;
        ++raises[def];
        pushSsa(def);
    }

    /// Abstract value a plain (non-φ) instruction def computes.
    [[nodiscard]] AbsValue evalDef(InstrIndex i) const {
        const Instruction& ins = cfg.program->code[i];
        const Op op = ins.op;
        if (op <= Op::kRemu)
            return absAluOp(op, valOf(ssa.srcDef[i][0]),
                            valOf(ssa.srcDef[i][1]));
        if (op >= Op::kAddiu && op <= Op::kSra)
            return absAluImmOp(op, valOf(ssa.srcDef[i][0]), ins.imm);
        if (isLoad(op)) return absLoadResult(op);
        if (op == Op::kJal || op == Op::kJalr)
            return AbsValue::constant(
                static_cast<std::int32_t>(cfg.pcOf(i) + kInstrBytes));
        return AbsValue::top();
    }

    /// A `sys` provably halting here (v0 must be Syscall::kExit)?
    [[nodiscard]] bool sysHalts(InstrIndex i) const {
        return valOf(ssa.srcDef[i][0]) ==
               AbsValue::constant(static_cast<std::int32_t>(Syscall::kExit));
    }

    void markEdge(std::size_t b, std::size_t succIdx) {
        if (!out.edgeExecutable[b][succIdx]) cfgWork.emplace_back(b, succIdx);
    }

    /// Decide which out-edges of an executable block can run, from the
    /// final instruction's current abstract operands.
    void flowOut(std::size_t b) {
        const BasicBlock& block = cfg.blocks[b];
        const Instruction& last = cfg.program->code[block.last];
        if (last.op == Op::kSys && sysHalts(block.last)) return;
        const EdgeRefinement& er = refinement[b];
        TriBool t = TriBool::kUnknown;
        if (er.isBranch)
            t = evalCondAbs(er.cond, valOf(ssa.srcDef[block.last][0]));
        for (std::size_t si = 0; si < block.succs.size(); ++si) {
            if (er.isBranch && t != TriBool::kUnknown) {
                const InstrIndex first = cfg.blocks[block.succs[si]].first;
                const bool isTarget = first == er.targetIdx;
                const bool isFall = first == er.fallthroughIdx;
                if (isTarget != isFall) {  // one-arm successor
                    if (t == TriBool::kTrue && !isTarget) continue;
                    if (t == TriBool::kFalse && !isFall) continue;
                }
            }
            markEdge(b, si);
        }
    }

    /// Evaluate every instruction of `b` from `from` on; stops at a
    /// provably-exiting sys, otherwise releases the out-edges.
    void visitBlockFrom(std::size_t b, InstrIndex from) {
        const BasicBlock& block = cfg.blocks[b];
        for (InstrIndex i = from; i <= block.last; ++i) {
            ++out.iterations;
            const Instruction& ins = cfg.program->code[i];
            if (ssa.outDef[i] != kNoDef) setValue(ssa.outDef[i], evalDef(i));
            if (ins.op == Op::kSys && sysHalts(i)) return;
        }
        flowOut(b);
    }

    /// φ value: join of refined operands along executable incoming edges
    /// (plus the reset state for entry-block φs — the virtual entry edge).
    [[nodiscard]] AbsValue evalPhiValue(const SsaPhi& phi) const {
        AbsValue v = AbsValue::bottom();
        if (phi.block == cfg.entryBlock)
            v = v.join(entry[phi.reg]);
        const auto& preds = cfg.blocks[phi.block].preds;
        for (std::size_t k = 0; k < preds.size(); ++k) {
            const std::size_t p = preds[k];
            const std::size_t si = succIndexOf[phi.block][k];
            if (!out.edgeExecutable[p][si]) continue;
            const std::uint32_t arg = phi.args[k];
            if (arg == kNoDef) continue;
            AbsValue av = out.value[arg];
            if (av.isBottom()) continue;
            const EdgeRefinement& er = refinement[p];
            if (er.isBranch) {
                RegState tmp;
                tmp.fill(AbsValue::top());
                tmp[reg::zero] = AbsValue::constant(0);
                tmp[er.condReg] = valOrTop(ssa.defAtExit[p][er.condReg]);
                if (er.hasCmp) {
                    tmp[er.cmpA] = valOrTop(ssa.defAtExit[p][er.cmpA]);
                    if (er.cmpBIsReg)
                        tmp[er.cmpB] = valOrTop(ssa.defAtExit[p][er.cmpB]);
                }
                tmp[phi.reg] = av;  // same def as defAtExit[p][phi.reg]
                if (!refineForEdge(cfg, er, phi.block, tmp))
                    continue;  // contribution provably infeasible
                av = tmp[phi.reg];
            }
            v = v.join(av);
        }
        return v;
    }

    void evalPhi(std::uint32_t phiId) {
        ++out.iterations;
        setValue(ssa.phis[phiId].def, evalPhiValue(ssa.phis[phiId]));
    }

    void run() {
        const std::size_t n = cfg.blocks.size();
        raises.assign(ssa.defs.size(), 0);
        onSsaWork.assign(ssa.defs.size(), 0);
        refinement.resize(n);
        succIndexOf.resize(n);
        for (std::size_t b = 0; b < n; ++b) {
            refinement[b] = edgeRefinement(cfg, b);
            const auto& preds = cfg.blocks[b].preds;
            succIndexOf[b].resize(preds.size());
            for (std::size_t k = 0; k < preds.size(); ++k) {
                const auto& ss = cfg.blocks[preds[k]].succs;
                succIndexOf[b][k] = static_cast<std::size_t>(
                    std::find(ss.begin(), ss.end(), b) - ss.begin());
            }
        }
        entry = entryRegState(cfg);
        for (int r = 0; r < kNumRegs; ++r)
            out.value[ssa.entryDef[static_cast<std::size_t>(r)]] =
                entry[static_cast<std::size_t>(r)];

        budget = 256 * cfg.numInstructions() + 2048;
        out.blockExecutable[cfg.entryBlock] = 1;
        for (const std::uint32_t phiId : ssa.phisOf[cfg.entryBlock])
            evalPhi(phiId);
        visitBlockFrom(cfg.entryBlock, cfg.blocks[cfg.entryBlock].first);

        while (!cfgWork.empty() || !ssaWork.empty()) {
            if (out.iterations > budget) {
                blown = true;
                break;
            }
            if (!cfgWork.empty()) {
                const auto [b, si] = cfgWork.front();
                cfgWork.pop_front();
                if (out.edgeExecutable[b][si]) continue;
                out.edgeExecutable[b][si] = 1;
                const std::size_t succ = cfg.blocks[b].succs[si];
                if (!out.blockExecutable[succ]) {
                    out.blockExecutable[succ] = 1;
                    for (const std::uint32_t phiId : ssa.phisOf[succ])
                        evalPhi(phiId);
                    visitBlockFrom(succ, cfg.blocks[succ].first);
                } else {
                    // A new incoming edge only re-feeds the φs.
                    for (const std::uint32_t phiId : ssa.phisOf[succ])
                        evalPhi(phiId);
                }
                continue;
            }
            const std::uint32_t d = ssaWork.front();
            ssaWork.pop_front();
            onSsaWork[d] = 0;
            for (const SsaUse& use : ssa.defs[d].uses) {
                if (use.atPhi) {
                    if (out.blockExecutable[ssa.phis[use.site].block])
                        evalPhi(use.site);
                    continue;
                }
                const InstrIndex i = use.site;
                const std::size_t b = cfg.blockOf[i];
                if (!out.blockExecutable[b]) continue;
                ++out.iterations;
                const Instruction& ins = cfg.program->code[i];
                if (ssa.outDef[i] != kNoDef)
                    setValue(ssa.outDef[i], evalDef(i));
                if (ins.op == Op::kSys) {
                    // A sys that stops halting releases the rest of its
                    // block; one that still halts changes nothing.
                    if (!sysHalts(i)) visitBlockFrom(b, i + 1);
                } else if (i == cfg.blocks[b].last) {
                    flowOut(b);  // branch direction may have widened
                }
            }
        }

        if (blown) {
            forceTop();
            return;
        }
        narrow();
    }

    /// Budget exhausted: every value in an executable region becomes top
    /// and executability is closed transitively — sound, only imprecise.
    void forceTop() {
        out.converged = false;
        for (std::size_t d = 0; d < out.value.size(); ++d)
            out.value[d] = ssa.defs[d].reg == reg::zero
                               ? AbsValue::constant(0)
                               : AbsValue::top();
        std::vector<std::size_t> work{cfg.entryBlock};
        std::vector<char> seen(cfg.blocks.size(), 0);
        seen[cfg.entryBlock] = 1;
        while (!work.empty()) {
            const std::size_t b = work.back();
            work.pop_back();
            out.blockExecutable[b] = 1;
            const auto& succs = cfg.blocks[b].succs;
            for (std::size_t si = 0; si < succs.size(); ++si) {
                out.edgeExecutable[b][si] = 1;
                if (!seen[succs[si]]) {
                    seen[succs[si]] = 1;
                    work.push_back(succs[si]);
                }
            }
        }
    }

    /// Two sparse narrowing sweeps: recompute each executable def from its
    /// operands without widening and meet into the stored value.  Both
    /// sides over-approximate the concrete value set, so the intersection
    /// still does (same argument as the dense narrowing).
    void narrow() {
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::size_t b : doms.rpo) {
                if (!out.blockExecutable[b]) continue;
                for (const std::uint32_t phiId : ssa.phisOf[b]) {
                    const AbsValue fresh = evalPhiValue(ssa.phis[phiId]);
                    const std::uint32_t d = ssa.phis[phiId].def;
                    const AbsValue met = out.value[d].meet(fresh);
                    if (!met.isBottom()) out.value[d] = met;
                }
                const BasicBlock& block = cfg.blocks[b];
                for (InstrIndex i = block.first; i <= block.last; ++i) {
                    if (ssa.outDef[i] == kNoDef) continue;
                    const std::uint32_t d = ssa.outDef[i];
                    const AbsValue met = out.value[d].meet(evalDef(i));
                    if (!met.isBottom()) out.value[d] = met;
                }
            }
        }
    }
};

}  // namespace

SccpResult runSccp(const Cfg& cfg, const DominatorTree& doms,
                   const SsaForm& ssa) {
    SccpResult res;
    const std::size_t n = cfg.blocks.size();
    res.value.assign(ssa.defs.size(), AbsValue::bottom());
    res.blockExecutable.assign(n, 0);
    res.edgeExecutable.resize(n);
    for (std::size_t b = 0; b < n; ++b)
        res.edgeExecutable[b].assign(cfg.blocks[b].succs.size(), 0);
    if (n == 0 || cfg.entryBlock == kNoBlock) return res;

    Engine engine(cfg, doms, ssa, res);
    engine.run();
    return res;
}

}  // namespace asbr::analysis::ipa
