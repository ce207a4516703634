// The vocabulary the pipeline and its fetch-stage customizer share.
//
// The paper's microarchitectural customization plugs into fetch: the
// pipeline consults the ASBR unit (src/asbr) on every fetch, before the
// branch predictor, and feeds it the register-production events the Early
// Condition Evaluation phase needs.  The unit's hooks carry the contract
// (asbr/asbr_unit.hpp); this header holds the two types the pipeline needs
// without depending on the unit.
#pragma once

#include <cstdint>

#include "isa/isa.hpp"

namespace asbr {

/// Pipeline points at which a register value can be captured by the early
/// condition evaluation logic (Section 5.2 of the paper):
///   kExEnd  — end of the execute stage (most aggressive, threshold 2)
///   kMemEnd — forwarding path right after execute (threshold 3)
///   kCommit — register commit / writeback (baseline, threshold 4)
enum class ValueStage : std::uint8_t { kExEnd = 0, kMemEnd = 1, kCommit = 2 };

/// Replacement produced by folding a branch out of the fetch slot.
struct FoldOutcome {
    Instruction replacement;       ///< BTI or BFI
    std::uint32_t replacementPc;   ///< address the replacement executes at
    bool taken = false;            ///< resolved branch direction
};

}  // namespace asbr
