// The Application-Specific Branch Resolution unit — the paper's core
// contribution, and the pipeline's one fetch-stage customizer: the pipeline
// consults it on every fetch and feeds it the register-production events.
//
// Phase 1 (Early Condition Evaluation): the pipeline delivers each produced
// value once, at the configured capture point (commit, post-execute
// forwarding path, or execute end — Section 5.2's threshold optimization),
// and onValueAvailable updates the BDT with it.
//
// Phase 2 (branch folding, paper Figure 4): onFetch looks the PC up in the
// active BIT bank; on a match with a valid (no in-flight producer) condition
// register, the branch is replaced by its target or fall-through instruction
// and the fetch stream is redirected, so the branch never enters the
// pipeline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asbr/bdt.hpp"
#include "asbr/bit.hpp"
#include "asbr/static_fold.hpp"
#include "sim/exec.hpp"
#include "sim/fetch_customizer.hpp"

namespace asbr {

class MetricRegistry;

/// Memory-mapped control register: a store to this address selects the
/// active BIT bank (paper Section 7, "writing a special value to a control
/// register just before entering the loop").
inline constexpr std::uint32_t kBitBankSelectAddr = 0xFFFF'0000u;

/// Configuration of the ASBR hardware.
struct AsbrConfig {
    /// Pipeline point where the early condition evaluation captures values.
    /// kCommit  = paper's base scheme       (threshold 4 on a 5-stage pipe)
    /// kMemEnd  = forwarding path after EX  (threshold 3)
    /// kExEnd   = evaluate within EX        (threshold 2, most aggressive)
    ValueStage updateStage = ValueStage::kMemEnd;
    std::size_t bitCapacity = 16;
    std::size_t bitBanks = 1;
    /// Opt-in soft-error protection (docs/fault-injection.md): per-entry
    /// parity on the BDT and BIT is checked before every table read.  A
    /// mismatch takes the entry out of service — the branch falls back to
    /// the general predictor — and charges `parityRecoveryPenalty` fetch
    /// bubbles for the scrub.  Off by default: the unprotected unit is
    /// cycle-identical to the pre-parity hardware.
    bool parityProtected = false;
    std::uint32_t parityRecoveryPenalty = 2;
};

/// Fold statistics for cost/benefit reporting.
struct AsbrStats {
    std::uint64_t lookups = 0;        ///< fetches of BIT-resident branches
    std::uint64_t folds = 0;          ///< successfully folded
    std::uint64_t foldsTaken = 0;
    std::uint64_t blockedInvalid = 0; ///< producer in flight — fell back to predictor
    std::uint64_t bankSwitches = 0;
    std::uint64_t parityRecoveries = 0;  ///< parity mismatches detected + scrubbed
    std::uint64_t quarantinedBlocks = 0; ///< folds blocked by a quarantined BDT entry
    std::uint64_t staticFolds = 0;       ///< folds resolved by the static table

    /// Register these totals under `asbr.*` in the metric registry.
    void publish(MetricRegistry& registry) const;
};

class AsbrUnit {
public:
    explicit AsbrUnit(const AsbrConfig& config = {});

    /// Customization: load branch information into a BIT bank (normally bank
    /// 0; additional banks cover further loops).
    void loadBank(std::size_t bank, std::vector<BranchInfo> entries);

    /// Customization: load statically-decided branches (src/analysis/absint
    /// verdicts).  These fold on every fetch with no BDT dependence and no
    /// BIT occupancy.  `bitSlotsReclaimed` records how many BIT slots the
    /// old dynamic-only policy would have spent on these branches — freed
    /// for the next-hottest dynamic candidates; it is a customization fact,
    /// so reset() leaves it (and the table) in place, like loadBank data.
    void loadStaticFolds(std::vector<StaticFoldEntry> entries,
                         std::uint64_t bitSlotsReclaimed = 0);

    /// Pipeline hooks ------------------------------------------------------
    //
    // Every hook the cycle loop calls is defined here, in the header.  The
    // pipeline instantiates its loop on this type, so the calls bind
    // directly and inline; and since asbr_core links asbr_sim, an
    // out-of-line hook would be a reference from asbr_sim back into
    // asbr_core that binaries linking only asbr_sim cannot resolve.

    /// Called for every fetched instruction.  Returning a FoldOutcome removes
    /// the fetched instruction from the stream and injects the replacement;
    /// the next fetch continues at replacementPc + 4.
    std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                       const Instruction& fetched) {
        // Statically-decided branches resolve before the BIT is even
        // consulted: the direction is a customization-time constant, so no
        // BDT read, no validity check, and no way to be blocked.
        if (const StaticFoldEntry* sf = staticFolds_.lookup(pc)) {
            ASBR_ENSURE(isCondBranch(fetched.op),
                        "static fold entry does not match the fetched "
                        "instruction");
            ++stats_.staticFolds;
            ++stats_.folds;
            if (sf->taken) ++stats_.foldsTaken;
            return FoldOutcome{sf->replacement, sf->replacementPc, sf->taken};
        }
        const BranchInfo* entry = nullptr;
        if (config_.parityProtected) {
            bool recovered = false;
            entry = bit_.lookupProtected(pc, recovered);
            if (recovered) {
                chargeRecovery();
                return std::nullopt;  // entry scrubbed — predictor path
            }
        } else {
            entry = bit_.lookup(pc);
        }
        if (entry == nullptr) return std::nullopt;
        ++stats_.lookups;
        // The BIT identifies branches by PC before decode; entries are
        // extracted from the same program image, so a mismatch means
        // corrupted customization data.
        ASBR_ENSURE(isCondBranch(fetched.op) &&
                        fetched.rs == entry->conditionReg,
                    "BIT entry does not match the fetched instruction");
        if (!bdtGate(entry->conditionReg)) {
            ++stats_.quarantinedBlocks;
            return std::nullopt;  // BDT entry out of service — use predictor
        }
        if (!bdt_.isValid(entry->conditionReg)) {
            ++stats_.blockedInvalid;
            return std::nullopt;  // predicate producer in flight — use predictor
        }
        ++stats_.folds;
        const bool taken = bdt_.direction(entry->conditionReg, entry->cond);
        if (taken) {
            ++stats_.foldsTaken;
            return FoldOutcome{entry->bti, entry->bta, true};
        }
        return FoldOutcome{entry->bfi, pc + kInstrBytes, false};
    }

    /// Start a simulation clean: the pipeline calls this once, when it is
    /// built, so bounded runs resume without wiping warm BDT state.  The
    /// customization (BIT banks, static folds) stays loaded.
    void reset() {
        bdt_.reset();
        stats_ = AsbrStats{};
        bit_.selectBank(0);
        pendingRecoveryStall_ = 0;
    }

    /// An instruction producing `reg` completed decode (it will definitely
    /// execute — the pipeline never lets wrong-path instructions past
    /// decode); never called for r0.  Its BDT entry goes stale until the
    /// matching onValueAvailable.
    void onProducerDecoded(std::uint8_t reg) {
        if (!bdtGate(reg)) return;
        bdt_.producerDecoded(reg);
    }

    /// Early condition evaluation captures values at the configured stage.
    /// Read once per PipelineSim::run() call.
    [[nodiscard]] ValueStage captureStage() const { return config_.updateStage; }

    /// `reg` now holds `value`: recompute its direction bits and release one
    /// pending producer.  The pipeline fires one value event per produced
    /// register, in program order: at captureStage(), or at kMemEnd for a
    /// load when the capture stage is kExEnd (a loaded value does not exist
    /// before MEM).  Every onProducerDecoded(reg) is matched by one.
    void onValueAvailable(std::uint8_t reg, std::int32_t value) {
        if (!bdtGate(reg)) return;
        bdt_.update(reg, value);
    }

    /// A store to `addr` completed (MEM stage).  Stores to the bank-select
    /// control register switch the active bank at loop transitions (paper,
    /// Section 7); every other store is ignored.
    void onStore(std::uint32_t addr, std::int32_t value) {
        if (addr != kBitBankSelectAddr) return;
        ++stats_.bankSwitches;
        bit_.selectBank(static_cast<std::size_t>(value));
    }

    /// Sampled fast-forward (sim/sampling.cpp): set the BDT to the state the
    /// skipped instructions' event stream would leave.  After a drain every
    /// register written so far holds the direction bits of its current value
    /// with a zero counter; `writtenRegs` names the registers whose value
    /// the skip may have changed, and every other entry stays as it is (sp
    /// and gp start nonzero without a producer, so until written their
    /// entries still say zero).  Any recovery debt is dropped: a skip has no
    /// fetch stream to stall.
    void resyncDrained(const ArchState& state, std::uint32_t writtenRegs) {
        for (std::uint8_t r = 0; r < kNumRegs; ++r)
            if (((writtenRegs >> r) & 1u) != 0) bdt_.resync(r, state.reg(r));
        pendingRecoveryStall_ = 0;
    }

    /// Fetch bubbles to insert after the current fetch — the
    /// resynchronization cost of a parity scrub after a detected soft error.
    /// Called once per consulted fetch; the debt is consumed.
    std::uint32_t takeRecoveryStall() {
        const std::uint32_t stall = pendingRecoveryStall_;
        pendingRecoveryStall_ = 0;
        return stall;
    }

    [[nodiscard]] const AsbrStats& stats() const { return stats_; }
    [[nodiscard]] const AsbrConfig& config() const { return config_; }
    [[nodiscard]] const BranchIdentificationTable& bit() const { return bit_; }
    [[nodiscard]] const BranchDirectionTable& bdt() const { return bdt_; }
    [[nodiscard]] const StaticFoldTable& staticFolds() const {
        return staticFolds_;
    }
    [[nodiscard]] std::uint64_t bitSlotsReclaimed() const {
        return bitSlotsReclaimed_;
    }

    /// Fault-injection ports: mutable access to the tables so a campaign can
    /// flip stored bits mid-run (src/fault).  Not used on the fetch path.
    [[nodiscard]] BranchDirectionTable& bdtFaultPort() { return bdt_; }
    [[nodiscard]] BranchIdentificationTable& bitFaultPort() { return bit_; }

    /// Hardware cost proxy in bits (BIT + BDT + static fold table; parity
    /// bits when protected).
    [[nodiscard]] std::uint64_t storageBits() const {
        std::uint64_t bits = bit_.storageBits() +
                             BranchDirectionTable::storageBits() +
                             staticFolds_.storageBits();
        if (config_.parityProtected)
            bits += bit_.parityStorageBits() +
                    BranchDirectionTable::parityStorageBits();
        return bits;
    }

    /// Register fold statistics plus hardware-cost metrics (`asbr.*`).
    void publishMetrics(MetricRegistry& registry) const;
    /// The hardware-cost half of publishMetrics (`asbr.storage_bits`,
    /// `asbr.bit_capacity`, `asbr.bit_slots_reclaimed`): facts of the
    /// customization that no run changes.
    void publishCostMetrics(MetricRegistry& registry) const;

private:
    /// Protected-mode gate in front of every BDT access: on a parity mismatch
    /// the entry is quarantined, a recovery is counted and the scrub penalty
    /// is queued.  Returns false when the entry must not be used this access.
    /// Inline so the unprotected configuration folds to a single compare on
    /// the pipeline's hot path.
    [[nodiscard]] bool bdtGate(std::uint8_t reg) {
        if (!config_.parityProtected) return true;
        if (bdt_.isQuarantined(reg)) return false;
        if (!bdt_.parityOk(reg)) {
            // Detected soft error: scrub the entry out of service for the
            // rest of the run and pay the resynchronization penalty once.
            bdt_.quarantine(reg);
            chargeRecovery();
            return false;
        }
        return true;
    }

    void chargeRecovery() {
        ++stats_.parityRecoveries;
        pendingRecoveryStall_ += config_.parityRecoveryPenalty;
    }

    AsbrConfig config_;
    BranchIdentificationTable bit_;
    BranchDirectionTable bdt_;
    StaticFoldTable staticFolds_;
    AsbrStats stats_;
    std::uint64_t bitSlotsReclaimed_ = 0;
    std::uint32_t pendingRecoveryStall_ = 0;
};

}  // namespace asbr
