// Shared abstract transfer functions, branch-edge refinement and widening
// delay.
//
// The dense fixpoint (absint.cpp) and the sparse SCCP engine
// (analysis/ipa/sccp.cpp) share the instruction semantics, the refinement a
// conditional branch applies to the tested register (and, through the
// slt-family compare idiom, its operands) along each outgoing edge, and the
// point where a rising value starts to widen.  This header is the single
// home of that logic; both engines call into it.
#pragma once

#include <cstdint>

#include "analysis/absint/absint.hpp"
#include "analysis/cfg.hpp"

namespace asbr::analysis {

/// A block's entry state at a widening point (dense) or an SSA def (SCCP)
/// widens only once it has risen more than this many times.  The delay
/// keeps short chains, such as a loop-carried guard that settles after a
/// few iterations, exact; the threshold ladder still bounds the long ones.
inline constexpr std::uint16_t kWidenAfter = 12;

/// The deterministic machine state both simulators reset to
/// (sim/functional.cpp, sim/pipeline.cpp): all registers zero except the
/// stack and global pointers.
[[nodiscard]] RegState entryRegState(const Cfg& cfg);

/// Abstract effect of one instruction.  Returns false when execution
/// provably halts here (a `sys` whose v0 must be Syscall::kExit).
bool absTransferInstruction(const Cfg& cfg, InstrIndex idx,
                            const Instruction& ins, RegState& s);

/// Walk a whole block from its entry state.  Returns false when the block
/// provably halts before its end.
bool absTransferBlock(const Cfg& cfg, std::size_t b, RegState& s);

/// How a block's terminating conditional branch refines its successors.
struct EdgeRefinement {
    bool isBranch = false;      ///< block ends in a conditional branch
    std::uint8_t condReg = 0;
    Cond cond = Cond::kEqz;
    InstrIndex targetIdx = 0;   ///< taken-successor instruction index
    InstrIndex fallthroughIdx = 0;
    // Compare origin: the tested register is a slt/slti/sltu/sltiu flag
    // computed in the same block, with neither the flag nor the compared
    // operands redefined between the compare and the branch.  mcc lowers
    // every relational test (`i < n`) to such a flag feeding beqz/bnez, so
    // refining only the 0/1 flag would lose the operand bound that keeps
    // loop-counter intervals finite.
    bool hasCmp = false;
    Op cmpOp = Op::kSlt;
    std::uint8_t cmpA = 0;      ///< left operand register
    bool cmpBIsReg = false;
    std::uint8_t cmpB = 0;      ///< right operand register (R-type compares)
    std::int32_t cmpImm = 0;    ///< right operand immediate (I-type compares)
};

[[nodiscard]] EdgeRefinement edgeRefinement(const Cfg& cfg, std::size_t b);

/// Out-state along the edge b -> succ, refined by the branch condition when
/// the edge is exclusively the taken or the fall-through arm.  Returns false
/// when the edge is infeasible (refinement emptied the tested register).
bool refineForEdge(const Cfg& cfg, const EdgeRefinement& er, std::size_t succ,
                   RegState& out);

}  // namespace asbr::analysis
