// Single-bit fault model for the ASBR microarchitectural state
// (docs/fault-injection.md).
//
// A FaultSite names one flippable storage bit in the customization hardware:
// a BDT condition bit, a BDT validity-counter bit, a BDT parity bit, any bit
// of a BIT entry field, or a bit of a bimodal predictor counter.  Sites are
// enumerated from a loaded unit, sampled deterministically by the campaign
// runner (src/fault/campaign.hpp), and applied at an exact cycle while the
// pipeline is paused there (PipelineSim::runUntil).  Architectural state
// (registers, memory, PC) is
// deliberately out of scope — the paper's addition is the table hardware, so
// that is what the soft-error study targets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "util/json.hpp"

namespace asbr {

/// Which storage structure a fault site lives in.
enum class FaultUnit : std::uint8_t {
    kBdtCond = 0,     ///< a precomputed direction bit
    kBdtCounter = 1,  ///< a bit of the 3-bit validity counter
    kBdtParity = 2,   ///< the BDT entry's parity bit
    kBit = 3,         ///< any bit of a BIT entry (field selects which word)
    kBpCounter = 4,   ///< a bit of a bimodal 2-bit counter
};

[[nodiscard]] const char* faultUnitName(FaultUnit unit);

/// One flippable bit.  Only the fields relevant to `unit` are meaningful;
/// the rest stay zero so sites compare and serialize canonically.
struct FaultSite {
    FaultUnit unit = FaultUnit::kBdtCond;
    std::uint32_t reg = 0;    ///< BDT register (kBdt*)
    std::uint32_t cond = 0;   ///< condition index (kBdtCond)
    std::uint32_t bank = 0;   ///< BIT bank (kBit)
    std::uint32_t entry = 0;  ///< BIT entry index (kBit)
    BitField field = BitField::kPc;  ///< BIT field (kBit)
    std::uint32_t index = 0;  ///< counter index (kBpCounter)
    std::uint32_t bit = 0;    ///< bit within the field/counter

    [[nodiscard]] bool operator==(const FaultSite&) const = default;
};

/// Human-readable one-liner, e.g. "bdt_cond r4 cond=2".
[[nodiscard]] std::string describeSite(const FaultSite& site);

/// JSON round-trip (used by asbr.fault_report and `asbr-faults replay`).
[[nodiscard]] JsonValue faultSiteJson(const FaultSite& site);
/// Throws EnsureError on a malformed site object.
[[nodiscard]] FaultSite faultSiteFromJson(const JsonValue& value);

/// One scheduled fault: flip `site` at the start of cycle `cycle`, before
/// any stage runs.  Cycles count from 1, so cycle 0 never fires, and neither
/// does a cycle the run does not reach.
struct Injection {
    FaultSite site;
    std::uint64_t cycle = 0;
};

/// Classification of one injected run against the golden model.
enum class FaultOutcome : std::uint8_t {
    kMasked = 0,            ///< result identical to golden; no recovery fired
    kDetectedRecovered = 1, ///< result identical; parity recovery fired
    kDetectedAborted = 2,   ///< an integrity check (EnsureError) stopped the run
    kSdc = 3,               ///< silent data corruption: wrong result, no alarm
    kHang = 4,              ///< watchdog expired (SimTimeoutError)
};

inline constexpr std::size_t kNumFaultOutcomes = 5;

[[nodiscard]] const char* faultOutcomeName(FaultOutcome outcome);

/// Flip the bit named by `site` in the target hardware.  `bimodal` may be
/// null when the campaign does not target predictor counters.
void applySite(const FaultSite& site, AsbrUnit& unit,
               BimodalPredictor* bimodal);

/// Site-enumeration filter.
struct SiteFilter {
    bool bdt = true;
    bool bit = true;
    bool bp = true;
};

/// Every flippable bit of the loaded unit (BIT bank 0 plus the BDT entries
/// of the condition registers bank 0 references) and, when `bimodal` is
/// non-null, every predictor counter bit.  Order is deterministic.
[[nodiscard]] std::vector<FaultSite> enumerateSites(
    const AsbrUnit& unit, const BimodalPredictor* bimodal,
    const SiteFilter& filter = {});

}  // namespace asbr
