// Branch Identification Table (paper Section 7).
//
// Each entry carries the statically pre-decoded branch information the fold
// logic needs in the fetch stage: the branch's own PC (used for
// identification), the Direction Index (condition register + condition), the
// Branch Target Address, and the target / fall-through instructions that
// replace the folded branch.  The table supports multiple banks; only one
// bank is active at a time and software switches banks by writing a control
// register at loop transitions.
//
// Robustness (docs/fault-injection.md): entries additionally keep the BTI/BFI
// replacement slots in encoded form plus one even-parity bit over all stored
// words.  Legitimate writes (loadBank) compute parity; the fault-injection
// port (flipEntryBit) flips a stored bit without fixing it, modeling a soft
// error.  Protected lookups check parity on a PC match and invalidate the
// entry on mismatch — the branch then takes the ordinary predictor path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "isa/encoding.hpp"
#include "isa/isa.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// Statically pre-decoded information for one foldable branch — the fields
/// of one BIT entry (PC, DI, BTA, BTI/inst1, BFI/inst2).
struct BranchInfo {
    std::uint32_t pc = 0;           ///< branch address (identification tag)
    std::uint8_t conditionReg = 0;  ///< DI: BDT entry holding the predicate
    Cond cond = Cond::kEqz;         ///< DI: which condition bit to read
    std::uint32_t bta = 0;          ///< branch target address
    Instruction bti;                ///< instruction at the target
    Instruction bfi;                ///< instruction on the fall-through path
};

/// Addressable fields of a stored BIT entry, for single-bit fault injection.
enum class BitField : std::uint8_t {
    kPc = 0,      ///< identification tag (32 bits)
    kDi = 1,      ///< direction index: bits 0..4 reg, bits 5..7 cond
    kBta = 2,     ///< branch target address (32 bits)
    kBti = 3,     ///< encoded target instruction word (32 bits)
    kBfi = 4,     ///< encoded fall-through instruction word (32 bits)
    kParity = 5,  ///< the parity bit itself (1 bit)
};

/// Number of flippable bits in each BitField.
[[nodiscard]] inline unsigned bitFieldWidth(BitField f) {
    switch (f) {
        case BitField::kDi: return 8;
        case BitField::kParity: return 1;
        default: return 32;
    }
}

class BranchIdentificationTable {
public:
    /// `capacity` is the per-bank entry count (paper: 16).
    explicit BranchIdentificationTable(std::size_t capacity = 16,
                                       std::size_t numBanks = 1)
        : capacity_(capacity) {
        ASBR_ENSURE(capacity >= 1, "BIT capacity must be >= 1");
        ASBR_ENSURE(numBanks >= 1, "BIT needs at least one bank");
        banks_.resize(numBanks);
    }

    /// Load entries into a bank (customization / program-code upload).
    /// Truncation is an error — selection must respect the capacity.
    void loadBank(std::size_t bank, std::vector<BranchInfo> entries) {
        ASBR_ENSURE(bank < banks_.size(), "BIT: bad bank index");
        ASBR_ENSURE(entries.size() <= capacity_, "BIT: bank over capacity");
        for (std::size_t i = 0; i < entries.size(); ++i)
            for (std::size_t j = i + 1; j < entries.size(); ++j)
                ASBR_ENSURE(entries[i].pc != entries[j].pc,
                            "BIT: duplicate branch PC in bank");
        std::vector<Stored> stored;
        stored.reserve(entries.size());
        for (BranchInfo& info : entries) {
            Stored s;
            s.btiWord = encode(info.bti);
            s.bfiWord = encode(info.bfi);
            s.info = std::move(info);
            s.parity = computeParity(s);
            stored.push_back(s);
        }
        banks_[bank] = std::move(stored);
        rebuildFilter();
    }

    /// Select the active bank (control-register write at run time).
    void selectBank(std::size_t bank) {
        ASBR_ENSURE(bank < banks_.size(), "BIT: bad bank index");
        active_ = bank;
        rebuildFilter();
    }

    [[nodiscard]] std::size_t activeBank() const { return active_; }
    [[nodiscard]] std::size_t numBanks() const { return banks_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    /// Number of entries loaded into `bank` (fault-site enumeration).
    [[nodiscard]] std::size_t entryCount(std::size_t bank) const {
        ASBR_ENSURE(bank < banks_.size(), "BIT: bad bank index");
        return banks_[bank].size();
    }

    /// Decoded view of entry `entry` in `bank` (fault-site enumeration).
    [[nodiscard]] const BranchInfo& entryInfo(std::size_t bank,
                                              std::size_t entry) const {
        ASBR_ENSURE(bank < banks_.size(), "BIT: bad bank index");
        ASBR_ENSURE(entry < banks_[bank].size(), "BIT: bad entry index");
        return banks_[bank][entry].info;
    }

    /// Fully-associative PC match against the active bank (fetch stage),
    /// without any parity checking (unprotected hardware).  An entry whose
    /// replacement slot no longer decodes is corrupted customization data:
    /// fetching through it is an illegal-instruction condition.
    [[nodiscard]] const BranchInfo* lookup(std::uint32_t pc) const {
        if ((pcFilter_ & filterBit(pc)) == 0) return nullptr;
        for (const Stored& e : banks_[active_]) {
            if (!e.valid || e.info.pc != pc) continue;
            ASBR_ENSURE(e.decodable,
                        "BIT: corrupted replacement instruction fetched");
            return &e.info;
        }
        return nullptr;
    }

    /// Parity-checked PC match (protected hardware).  On a match with bad
    /// parity the entry is invalidated for the rest of the run, `recovered`
    /// is set, and no fold happens — the branch falls back to the general
    /// predictor path.
    [[nodiscard]] const BranchInfo* lookupProtected(std::uint32_t pc,
                                                    bool& recovered) {
        recovered = false;
        if ((pcFilter_ & filterBit(pc)) == 0) return nullptr;
        for (Stored& e : banks_[active_]) {
            if (!e.valid || e.info.pc != pc) continue;
            if (e.parity != computeParity(e)) {
                e.valid = false;
                recovered = true;
                return nullptr;
            }
            ASBR_ENSURE(e.decodable,
                        "BIT: corrupted replacement instruction fetched");
            return &e.info;
        }
        return nullptr;
    }

    /// Fault-injection port: flip bit `bit` of `field` in entry `entry` of
    /// `bank`, WITHOUT updating parity.  Flips of the encoded BTI/BFI words
    /// re-derive the decoded slot; a word that no longer decodes marks the
    /// entry undecodable (the flip hit the opcode field).
    void flipEntryBit(std::size_t bank, std::size_t entry, BitField field,
                      unsigned bit) {
        ASBR_ENSURE(bank < banks_.size(), "BIT: bad bank index");
        ASBR_ENSURE(entry < banks_[bank].size(), "BIT: bad entry index");
        ASBR_ENSURE(bit < bitFieldWidth(field), "BIT: bit out of range");
        Stored& e = banks_[bank][entry];
        const std::uint32_t mask = 1u << bit;
        switch (field) {
            case BitField::kPc:
                e.info.pc ^= mask;
                rebuildFilter();
                break;
            case BitField::kDi:
                if (bit < 5) {
                    e.info.conditionReg =
                        static_cast<std::uint8_t>(e.info.conditionReg ^ mask);
                } else {
                    // Condition code bits; the flipped value may exceed the
                    // architected condition count — consumers bounds-check.
                    e.info.cond = static_cast<Cond>(
                        static_cast<std::uint8_t>(e.info.cond) ^ (mask >> 5));
                }
                break;
            case BitField::kBta:
                e.info.bta ^= mask;
                break;
            case BitField::kBti:
                e.btiWord ^= mask;
                redecode(e.btiWord, e.info.bti, e);
                break;
            case BitField::kBfi:
                e.bfiWord ^= mask;
                redecode(e.bfiWord, e.info.bfi, e);
                break;
            case BitField::kParity:
                e.parity = !e.parity;
                break;
        }
    }

    /// Storage cost in bits per the paper's area proxy: PC tag (30) +
    /// DI (5 reg + 3 cond) + BTA (30) + two 32-bit instruction slots.
    [[nodiscard]] std::uint64_t storageBits() const {
        return static_cast<std::uint64_t>(capacity_) * banks_.size() *
               (30 + 5 + 3 + 30 + 32 + 32);
    }

    /// Extra storage of the protected variant: one parity bit per entry.
    [[nodiscard]] std::uint64_t parityStorageBits() const {
        return static_cast<std::uint64_t>(capacity_) * banks_.size();
    }

private:
    struct Stored {
        BranchInfo info;
        std::uint32_t btiWord = 0;  ///< encoded bti (parity ground truth)
        std::uint32_t bfiWord = 0;  ///< encoded bfi (parity ground truth)
        bool parity = false;        ///< even parity over all stored words
        bool valid = true;          ///< cleared by protected-mode recovery
        bool decodable = true;      ///< replacement words still decode
    };

    /// Bit (pc / 4) mod 64 of the PC filter.
    [[nodiscard]] static std::uint64_t filterBit(std::uint32_t pc) {
        return std::uint64_t{1} << ((pc >> 2) & 63u);
    }

    /// Re-derive the filter from the active bank's stored PCs.  A lookup
    /// scans the bank only when its PC's filter bit is set, so most fetches
    /// are rejected with one AND.  Entries invalidated by a protected-mode
    /// recovery may keep their bit: a stale bit only costs a scan.
    void rebuildFilter() {
        pcFilter_ = 0;
        for (const Stored& e : banks_[active_]) pcFilter_ |= filterBit(e.info.pc);
    }

    static void redecode(std::uint32_t word, Instruction& slot, Stored& e) {
        try {
            slot = decode(word);
        } catch (const EnsureError&) {
            e.decodable = false;  // flip hit the opcode field
        }
    }

    [[nodiscard]] static bool computeParity(const Stored& e) {
        std::uint32_t acc = e.info.pc ^ e.info.bta ^ e.btiWord ^ e.bfiWord;
        acc ^= static_cast<std::uint32_t>(e.info.conditionReg) |
               (static_cast<std::uint32_t>(e.info.cond) << 5);
        acc ^= acc >> 16;
        acc ^= acc >> 8;
        acc ^= acc >> 4;
        acc ^= acc >> 2;
        acc ^= acc >> 1;
        return (acc & 1u) != 0;
    }

    std::size_t capacity_;
    std::size_t active_ = 0;
    std::vector<std::vector<Stored>> banks_;
    std::uint64_t pcFilter_ = 0;  ///< see rebuildFilter()
};

}  // namespace asbr
