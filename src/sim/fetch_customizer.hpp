// Fetch-stage customization hook.
//
// This is the seam the paper's microarchitectural customization plugs into:
// the pipeline consults the customizer on every fetch (before the branch
// predictor) and feeds it the register-production events the Early Condition
// Evaluation phase needs.  The ASBR unit (src/asbr) is the production
// implementation; tests install scripted fakes.
#pragma once

#include <cstdint>
#include <optional>

#include "isa/isa.hpp"

namespace asbr {

/// Pipeline points at which a register value can be captured by the early
/// condition evaluation logic (Section 5.2 of the paper):
///   kExEnd  — end of the execute stage (most aggressive, threshold 2)
///   kMemEnd — forwarding path right after execute (threshold 3)
///   kCommit — register commit / writeback (baseline, threshold 4)
enum class ValueStage : std::uint8_t { kExEnd = 0, kMemEnd = 1, kCommit = 2 };

class FetchCustomizer {
public:
    virtual ~FetchCustomizer() = default;

    /// Replacement produced by folding a branch out of the fetch slot.
    struct FoldOutcome {
        Instruction replacement;       ///< BTI or BFI
        std::uint32_t replacementPc;   ///< address the replacement executes at
        bool taken = false;            ///< resolved branch direction
    };

    /// Called for every fetched instruction.  Returning a FoldOutcome removes
    /// the fetched instruction from the stream and injects the replacement;
    /// the next fetch continues at replacementPc + 4.
    virtual std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                               const Instruction& fetched) = 0;

    /// An instruction producing `reg` completed decode (it will definitely
    /// execute — the pipeline never lets wrong-path instructions past
    /// decode).  Never called for r0.
    virtual void onProducerDecoded(std::uint8_t reg) = 0;

    /// The pipeline point at which this customizer captures produced values.
    /// Read once per PipelineSim::run() call.
    [[nodiscard]] virtual ValueStage captureStage() const = 0;

    /// `reg` now holds `value`.  Fired exactly once per produced register,
    /// in program order: at captureStage(), or at kMemEnd for a load when
    /// the capture stage is kExEnd (a loaded value does not exist before
    /// MEM).  Every onProducerDecoded(reg) is matched by one such event.
    virtual void onValueAvailable(std::uint8_t reg, std::int32_t value) = 0;

    /// A store to `addr` completed (MEM stage).  Default: ignored.  The ASBR
    /// unit watches a memory-mapped control register here to switch BIT banks
    /// at loop transitions (paper, Section 7).
    virtual void onStore(std::uint32_t addr, std::int32_t value) {
        (void)addr;
        (void)value;
    }

    /// Fetch bubbles the customizer wants inserted after the current fetch —
    /// the resynchronization cost of an internal recovery (e.g. an ASBR
    /// parity-scrub after a detected soft error).  Called once per consulted
    /// fetch; the return value is consumed (the customizer must clear its
    /// pending debt).  Default: no stall.
    virtual std::uint32_t takeRecoveryStall() { return 0; }

    virtual void reset() = 0;
};

}  // namespace asbr
