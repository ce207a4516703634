#include "analysis/absint/absint.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "analysis/absint/refine.hpp"

namespace asbr::analysis {

const char* branchDirectionName(BranchDirection d) {
    switch (d) {
        case BranchDirection::kAlwaysTaken: return "always_taken";
        case BranchDirection::kNeverTaken: return "never_taken";
        case BranchDirection::kDynamic: return "dynamic";
        case BranchDirection::kUnreachable: return "unreachable";
    }
    return "?";
}

namespace {

RegState bottomState() { return RegState{}; }  // AbsValue default is bottom

RegState topState() {
    RegState s;
    s.fill(AbsValue::top());
    s[reg::zero] = AbsValue::constant(0);
    return s;
}

}  // namespace

ValueAnalysis analyzeValues(const Cfg& cfg, const LoopForest& loops) {
    ValueAnalysis va;
    const std::size_t n = cfg.blocks.size();
    const std::size_t numIns = cfg.numInstructions();
    va.blockIn.assign(n, bottomState());
    va.blockReachable.assign(n, 0);
    va.feasibleEdge.resize(n);
    for (std::size_t b = 0; b < n; ++b)
        va.feasibleEdge[b].assign(cfg.blocks[b].succs.size(), 0);
    va.branchDir.assign(numIns, BranchDirection::kUnreachable);
    va.condAtBranch.assign(numIns, AbsValue::bottom());
    if (n == 0 || cfg.entryBlock == kNoBlock) return va;

    // --- Ascending phase: worklist fixpoint with widening. -----------------
    std::deque<std::size_t> worklist;
    std::vector<char> inList(n, 0);
    std::vector<std::size_t> raises(n, 0);  // rises of each blockIn
    auto enqueue = [&](std::size_t b) {
        if (!inList[b]) {
            inList[b] = 1;
            worklist.push_back(b);
        }
    };
    va.blockIn[cfg.entryBlock] = entryRegState(cfg);
    va.blockReachable[cfg.entryBlock] = 1;
    enqueue(cfg.entryBlock);

    // Generous budget; real workloads converge orders of magnitude sooner.
    // Past it, states jump straight to top: still sound, verdicts degrade
    // to Dynamic, and the loop drains because top is a fixpoint.
    const std::size_t budget = 64 * n + 256;
    bool forceTop = false;

    while (!worklist.empty()) {
        const std::size_t b = worklist.front();
        worklist.pop_front();
        inList[b] = 0;
        ++va.iterations;
        if (va.iterations > budget && !forceTop) {
            forceTop = true;
            va.converged = false;
        }

        RegState out = va.blockIn[b];
        if (!absTransferBlock(cfg, b, out)) continue;  // provably halts
        const EdgeRefinement er = edgeRefinement(cfg, b);
        for (const std::size_t succ : cfg.blocks[b].succs) {
            RegState edgeOut = out;
            if (!refineForEdge(cfg, er, succ, edgeOut)) continue;
            if (!va.blockReachable[succ]) {
                va.blockReachable[succ] = 1;
                va.blockIn[succ] = forceTop ? topState() : edgeOut;
                enqueue(succ);
                continue;
            }
            RegState next;
            bool changed = false;
            const bool widenHere =
                loops.isWideningPoint(succ) && raises[succ] > kWidenAfter;
            for (int r = 0; r < kNumRegs; ++r) {
                const AbsValue joined = va.blockIn[succ][r].join(edgeOut[r]);
                next[r] = forceTop ? (r == reg::zero ? AbsValue::constant(0)
                                                     : AbsValue::top())
                          : widenHere ? va.blockIn[succ][r].widen(joined)
                                      : joined;
                changed = changed || !(next[r] == va.blockIn[succ][r]);
            }
            if (changed) {
                va.blockIn[succ] = next;
                ++raises[succ];
                enqueue(succ);
            }
        }
    }

    // --- Bounded narrowing: x := x meet F(x), two RPO sweeps. --------------
    // Both operands over-approximate the concrete state set, so their
    // (exact) intersection still does; skipped when the budget was blown.
    if (va.converged) {
        const DominatorTree doms = computeDominators(cfg);
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::size_t b : doms.rpo) {
                if (!va.blockReachable[b]) continue;
                RegState newIn = bottomState();
                if (b == cfg.entryBlock) newIn = entryRegState(cfg);
                for (const std::size_t p : cfg.blocks[b].preds) {
                    if (!va.blockReachable[p]) continue;
                    RegState out = va.blockIn[p];
                    if (!absTransferBlock(cfg, p, out)) continue;
                    if (!refineForEdge(cfg, edgeRefinement(cfg, p), b, out))
                        continue;
                    for (int r = 0; r < kNumRegs; ++r)
                        newIn[r] = newIn[r].join(out[r]);
                }
                for (int r = 0; r < kNumRegs; ++r)
                    va.blockIn[b][r] = va.blockIn[b][r].meet(newIn[r]);
            }
        }
    }

    // --- Derive verdicts, edge feasibility and lints from the fixpoint. ----
    for (std::size_t b = 0; b < n; ++b) {
        if (!va.blockReachable[b]) {
            va.unreachableBlocks.push_back(b);
            continue;
        }
        const BasicBlock& block = cfg.blocks[b];
        RegState s = va.blockIn[b];
        bool halted = false;
        for (InstrIndex i = block.first; i <= block.last && !halted; ++i) {
            const Instruction& ins = cfg.program->code[i];
            if (isCondBranch(ins.op)) {
                va.condAtBranch[i] = s[ins.rs];
                switch (evalCondAbs(branchCond(ins.op), s[ins.rs])) {
                    case TriBool::kTrue:
                        va.branchDir[i] = BranchDirection::kAlwaysTaken;
                        break;
                    case TriBool::kFalse:
                        va.branchDir[i] = BranchDirection::kNeverTaken;
                        break;
                    case TriBool::kUnknown:
                        va.branchDir[i] = BranchDirection::kDynamic;
                        break;
                }
            }
            halted = !absTransferInstruction(cfg, i, ins, s);
        }
        if (halted) continue;  // out-edges stay infeasible
        const EdgeRefinement er = edgeRefinement(cfg, b);
        for (std::size_t i = 0; i < block.succs.size(); ++i) {
            RegState edgeOut = s;
            va.feasibleEdge[b][i] =
                refineForEdge(cfg, er, block.succs[i], edgeOut) ? 1 : 0;
        }
        // Dead-arm lint: the branch executes but one arm provably never
        // does.  Needs distinct target and fall-through successors.
        if (er.isBranch && er.targetIdx != er.fallthroughIdx) {
            const InstrIndex branch = block.last;
            if (va.branchDir[branch] == BranchDirection::kAlwaysTaken)
                va.deadArms.push_back({branch, /*takenArm=*/false});
            else if (va.branchDir[branch] == BranchDirection::kNeverTaken)
                va.deadArms.push_back({branch, /*takenArm=*/true});
        }
    }
    return va;
}

}  // namespace asbr::analysis
