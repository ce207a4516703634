// Branch Direction Table (paper Section 4, Figure 8).
//
// One entry per architectural register.  Each entry holds the precomputed
// direction bit for every zero-comparison branch condition the ISA supports,
// plus a validity counter tracking in-flight producers of the register:
// the counter is incremented when a producing instruction is decoded and
// decremented when the value reaches the early-condition-evaluation logic.
// A branch may only be folded when the counter of its condition register is
// zero — otherwise the precomputed direction bits could be stale.
//
// Robustness (docs/fault-injection.md): every entry carries one even-parity
// bit over its condition bits and validity counter, maintained by all
// legitimate writes.  Only the protected unit ever reads it, so the model
// keeps what the check needs instead of the bit — the contents it was
// computed over (Entry::check) — and computes parity in parityOk() alone.
// The fault-injection port (`flip*`) corrupts stored state *without* fixing
// parity, exactly like a radiation-induced bit flip; in the ASBR unit's
// protected mode a parity mismatch quarantines the entry, which permanently
// (for the run) disables folding on that register — the branch falls back
// to the general predictor path, preserving architectural correctness at a
// graceful fold-coverage cost.
#pragma once

#include <array>
#include <cstdint>

#include "isa/isa.hpp"
#include "util/ensure.hpp"

namespace asbr {

class BranchDirectionTable {
public:
    /// The validity counter is 3 bits wide (paper area proxy; a 5-stage
    /// in-order pipeline can keep at most a handful of producers in flight).
    static constexpr std::uint8_t kMaxPending = 7;

    BranchDirectionTable() { reset(); }

    /// Early Condition Evaluation (paper Figure 3): recompute all condition
    /// bits for `r` from the freshly produced value and release one pending
    /// producer.  Quarantined entries ignore updates (they are dead for the
    /// rest of the run).
    void update(std::uint8_t r, std::int32_t value) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        Entry& e = entries_[r];
        if (e.quarantined) return;
        ASBR_ENSURE(e.pending > 0, "BDT: update without pending producer");
        --e.pending;
        e.bits = condMask(value);
        e.check = contents(e);
    }

    /// A producer of `r` completed decode; direction bits for `r` are stale
    /// until the matching update() arrives.  The 3-bit counter must never
    /// saturate in a correctly tracking pipeline — overflow means the
    /// producer/update bookkeeping desynchronized.
    void producerDecoded(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        Entry& e = entries_[r];
        if (e.quarantined) return;
        ASBR_ENSURE(e.pending < kMaxPending,
                    "BDT: validity counter saturated (producer tracking "
                    "desynchronized)");
        ++e.pending;
        e.check = contents(e);
    }

    /// Set entry `r` to its drained state for `value`: the direction bits of
    /// `value`, no producer in flight.  Sampled fast-forward jumps the table
    /// to an architectural checkpoint this way; the pipeline has drained
    /// first, so the counter must already be zero.  Quarantined entries stay
    /// out of service.
    void resync(std::uint8_t r, std::int32_t value) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        Entry& e = entries_[r];
        if (e.quarantined) return;
        ASBR_ENSURE(e.pending == 0, "BDT: resync with a producer in flight");
        e.bits = condMask(value);
        e.check = contents(e);
    }

    /// True when no producer of `r` is in flight (folding is legal).
    /// Quarantined entries are never valid.
    [[nodiscard]] bool isValid(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return !entries_[r].quarantined && entries_[r].pending == 0;
    }

    /// Precomputed direction for condition `c` on register `r`.  Only
    /// meaningful when isValid(r).
    [[nodiscard]] bool direction(std::uint8_t r, Cond c) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(static_cast<int>(c) < kNumConds,
                    "BDT: bad condition index");
        return ((entries_[r].bits >> static_cast<unsigned>(c)) & 1u) != 0;
    }

    [[nodiscard]] std::uint32_t pendingCount(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return entries_[r].pending;
    }

    /// Parity check of entry `r` — true when the stored parity bit matches
    /// the entry contents (no detectable corruption).  The stored bit is
    /// the parity of `check`, so the two match exactly when the contents
    /// differ from `check` in an even number of bits.
    [[nodiscard]] bool parityOk(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        const Entry& e = entries_[r];
        return !oddParity(static_cast<unsigned>(contents(e) ^ e.check));
    }

    /// Take entry `r` out of service for the rest of the run (protected-mode
    /// recovery after a parity mismatch).  Folding on `r` is disabled and
    /// producer tracking for it becomes a no-op.
    void quarantine(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        entries_[r].quarantined = true;
    }

    [[nodiscard]] bool isQuarantined(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return entries_[r].quarantined;
    }

    /// Fault-injection port: flip the stored direction bit for (`r`, `c`)
    /// WITHOUT updating parity (models a transient single-bit upset).
    void flipConditionBit(std::uint8_t r, Cond c) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(static_cast<int>(c) < kNumConds,
                    "BDT: bad condition index");
        entries_[r].bits ^= static_cast<std::uint8_t>(1u << static_cast<unsigned>(c));
    }

    /// Fault-injection port: flip bit `bit` (0..2) of the validity counter.
    void flipPendingBit(std::uint8_t r, unsigned bit) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(bit < 3, "BDT: counter is 3 bits wide");
        entries_[r].pending ^= static_cast<std::uint8_t>(1u << bit);
    }

    /// Fault-injection port: flip the parity bit itself.
    void flipParityBit(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        entries_[r].check ^= kParityFlip;
    }

    /// All registers valid with value 0 (machine reset state).
    void reset() {
        for (Entry& e : entries_) {
            e.pending = 0;
            e.quarantined = false;
            e.bits = condMask(0);
            e.check = contents(e);
        }
    }

    /// Storage cost in bits: per register, one bit per condition plus the
    /// 3-bit validity counter.
    [[nodiscard]] static std::uint64_t storageBits() {
        return static_cast<std::uint64_t>(kNumRegs) * (kNumConds + 3);
    }

    /// Extra storage of the protected variant: one parity bit per register.
    [[nodiscard]] static std::uint64_t parityStorageBits() { return kNumRegs; }

private:
    /// Direction bits are packed as a mask, bit c = evalCond(Cond(c), value)
    /// — same contents as the paper's per-condition bit vector, but a
    /// single-byte update on the hot BDT-event path (the pipeline fires these
    /// events for every value-producing instruction).
    struct Entry {
        std::uint8_t bits = 0;     ///< per-condition direction bits
        std::uint8_t pending = 0;  ///< 3-bit validity counter
        /// The stored parity bit, kept as the contents it was computed over
        /// at the last legitimate write (bits ^ pending, whose parity is the
        /// parity of both fields), plus kParityFlip toggled by every flip of
        /// the parity bit since.  A legitimate write rewrites it, as the
        /// hardware recomputes its parity bit.
        std::uint8_t check = 0;
        bool quarantined = false;  ///< protected-mode: entry out of service
    };

    /// A bit of `check` the contents never set: kNumConds condition bits
    /// XOR a 3-bit counter stay below it.
    static constexpr std::uint8_t kParityFlip = 0x80;
    static_assert(kNumConds < 7, "condition bits must stay below kParityFlip");

    /// What the parity bit covers: the condition bits and the counter.
    [[nodiscard]] static std::uint8_t contents(const Entry& e) {
        return static_cast<std::uint8_t>(e.bits ^ e.pending);
    }

    /// evalCond over every condition at once; constexpr evalCond folds this
    /// into a handful of branchless flag computations.
    [[nodiscard]] static std::uint8_t condMask(std::int32_t value) {
        std::uint8_t mask = 0;
        for (int c = 0; c < kNumConds; ++c)
            if (evalCond(static_cast<Cond>(c), value))
                mask |= static_cast<std::uint8_t>(1u << c);
        return mask;
    }

    /// Odd parity of a byte: XOR-fold it to a nibble, then read that
    /// nibble's parity out of the 16-entry constant 0x6996.  Not
    /// std::popcount: without a popcount instruction in the target ISA that
    /// is a library call.
    [[nodiscard]] static bool oddParity(unsigned x) {
        x ^= x >> 4;
        return ((0x6996u >> (x & 0xFu)) & 1u) != 0;
    }

    std::array<Entry, kNumRegs> entries_;
};

}  // namespace asbr
