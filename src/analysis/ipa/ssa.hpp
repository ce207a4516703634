// SSA construction over the interprocedural CFG.
//
// Classic dominance-frontier algorithm (Cytron et al.) on top of the PR 4
// dominator tree: per-register definition sites, pruned φ placement (a φ is
// inserted at a dominance-frontier block only when the register is live-in
// there, so no dead φs clutter the def–use chains), and renaming along a
// depth-first walk of the dominator tree.  Registers are the only SSA
// variables — memory stays out of SSA form, matching the abstract domain
// (absint/domain.hpp) which does not model it either.
//
// Every architectural register receives a synthetic *entry definition*
// carrying the deterministic reset state, so uses before any write resolve
// to a real def (and feed the read-of-never-written lint) instead of being
// undefined.  Unreachable blocks are skipped entirely: their instructions
// keep kNoDef operands.
//
// The result is a pure data structure: per-instruction operand/def links,
// per-def use lists (the def–use chains SCCP's sparse worklist follows),
// per-block φ lists with one argument per predecessor edge, and reaching
// defs at block entry/exit (used by the φ-edge refinement in
// analysis/ipa/sccp.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"

namespace asbr::analysis::ipa {

/// Sentinel def id ("no def" — operand of an unreachable instruction,
/// instruction without a destination, ...).
inline constexpr std::uint32_t kNoDef = 0xFFFF'FFFFu;

/// One use of an SSA def: either a source operand of an instruction or an
/// argument slot of a φ.
struct SsaUse {
    bool atPhi = false;
    std::uint32_t site = 0;  ///< instruction index, or φ id when atPhi
    std::uint8_t slot = 0;   ///< operand slot / φ-argument (pred) index
};

/// One SSA definition of a register.
struct SsaDef {
    std::uint8_t reg = 0;
    std::size_t block = kNoBlock;
    InstrIndex instr = 0;    ///< defining instruction (plain defs only)
    bool isPhi = false;
    bool isEntry = false;    ///< synthetic reset-state def at the entry block
    std::uint32_t phi = 0;   ///< φ id when isPhi
    std::vector<SsaUse> uses;
};

/// A φ node: one argument per predecessor edge of its block (parallel to
/// cfg.blocks[block].preds; kNoDef for preds that are unreachable).
struct SsaPhi {
    std::uint32_t def = kNoDef;
    std::size_t block = kNoBlock;
    std::uint8_t reg = 0;
    std::vector<std::uint32_t> args;
};

struct SsaForm {
    std::vector<SsaDef> defs;
    std::vector<SsaPhi> phis;
    std::vector<std::vector<std::uint32_t>> phisOf;  ///< block id -> φ ids
    /// Per instruction: the def consumed by each source operand, parallel
    /// to srcRegs(ins) (kNoDef when absent or unreachable).
    std::vector<std::array<std::uint32_t, 2>> srcDef;
    /// Per instruction: the def it creates (kNoDef when none).
    std::vector<std::uint32_t> outDef;
    /// Reaching def per register at block entry (after φs) and exit;
    /// kNoDef rows for unreachable blocks.
    std::vector<std::array<std::uint32_t, kNumRegs>> defAtEntry;
    std::vector<std::array<std::uint32_t, kNumRegs>> defAtExit;
    /// The 32 synthetic entry defs, indexed by register.
    std::array<std::uint32_t, kNumRegs> entryDef{};
    /// Dominator-tree children (reachable blocks only).
    std::vector<std::vector<std::size_t>> domChildren;
    /// Dominance frontier per block.
    std::vector<std::vector<std::size_t>> frontier;
    /// live-in register mask per block (bit r set: r read before written on
    /// some path from the block entry).
    std::vector<std::uint32_t> liveIn;

    [[nodiscard]] std::size_t numPhis() const { return phis.size(); }
    /// Total operand/φ-argument uses recorded across all defs.
    [[nodiscard]] std::size_t numUses() const;
};

/// Build pruned SSA form for `cfg`; `doms` must come from the same cfg.
[[nodiscard]] SsaForm buildSsa(const Cfg& cfg, const DominatorTree& doms);

/// Dominance frontiers per block (Cooper/Harvey/Kennedy's two-finger walk);
/// exposed for tests.
[[nodiscard]] std::vector<std::vector<std::size_t>> dominanceFrontiers(
    const Cfg& cfg, const DominatorTree& doms);

}  // namespace asbr::analysis::ipa
