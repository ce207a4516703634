#include "asbr/asbr_unit.hpp"

#include "util/metrics.hpp"

namespace asbr {

void AsbrStats::publish(MetricRegistry& registry) const {
    registry
        .counter("asbr.bit_lookups", "fetches that hit a BIT-resident branch")
        .add(lookups);
    registry.counter("asbr.folds", "branches folded out of the fetch stream")
        .add(folds);
    registry.counter("asbr.folds_taken", "folds resolved in the taken direction")
        .add(foldsTaken);
    registry
        .counter("asbr.blocked_invalid",
                 "BIT hits blocked by a nonzero validity counter (producer "
                 "in flight); fell back to the predictor")
        .add(blockedInvalid);
    registry
        .counter("asbr.bank_switches",
                 "BIT bank switches via the memory-mapped control register")
        .add(bankSwitches);
    registry
        .counter("asbr.parity_recoveries",
                 "parity mismatches detected on a BDT/BIT access; the entry "
                 "was scrubbed out of service and the branch fell back to "
                 "the general predictor")
        .add(parityRecoveries);
    registry
        .counter("asbr.quarantined_blocks",
                 "fold opportunities blocked because the condition register's "
                 "BDT entry is quarantined after a parity recovery")
        .add(quarantinedBlocks);
    registry
        .counter("asbr.static_folds",
                 "branches folded by the static table (statically-decided "
                 "direction; no BDT dependence, never blocked)")
        .add(staticFolds);
}

void AsbrUnit::publishMetrics(MetricRegistry& registry) const {
    stats_.publish(registry);
    publishCostMetrics(registry);
}

void AsbrUnit::publishCostMetrics(MetricRegistry& registry) const {
    registry
        .counter("asbr.storage_bits", "ASBR hardware cost proxy (BIT + BDT)")
        .add(storageBits());
    registry.counter("asbr.bit_capacity", "configured BIT entries per bank")
        .add(config_.bitCapacity);
    registry
        .counter("asbr.bit_slots_reclaimed",
                 "BIT slots freed because the branch is handled by the "
                 "static fold table instead of a BIT entry")
        .add(bitSlotsReclaimed_);
}

AsbrUnit::AsbrUnit(const AsbrConfig& config)
    : config_(config), bit_(config.bitCapacity, config.bitBanks) {}

void AsbrUnit::loadBank(std::size_t bank, std::vector<BranchInfo> entries) {
    bit_.loadBank(bank, std::move(entries));
}

void AsbrUnit::loadStaticFolds(std::vector<StaticFoldEntry> entries,
                               std::uint64_t bitSlotsReclaimed) {
    staticFolds_.load(std::move(entries));
    bitSlotsReclaimed_ = bitSlotsReclaimed;
}

}  // namespace asbr
