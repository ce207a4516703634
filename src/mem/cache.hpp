// Set-associative cache timing model.
//
// The cache models *timing only*: data always lives in Memory, and the cache
// tracks tags + LRU state to decide whether an access hits.  This matches the
// role caches play in the paper's SimpleScalar configuration (8KB I / 8KB D):
// they contribute stall cycles, not functional behaviour.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/ensure.hpp"

namespace asbr {

class MetricRegistry;

/// Geometry and timing of one cache.
struct CacheConfig {
    std::uint32_t sizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 2;
    std::uint32_t missPenalty = 8;  ///< extra cycles on a miss

    [[nodiscard]] std::uint32_t numLines() const { return sizeBytes / lineBytes; }
    [[nodiscard]] std::uint32_t numSets() const { return numLines() / assoc; }
};

/// Aggregate cache statistics.
struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    [[nodiscard]] double missRate() const {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) / static_cast<double>(accesses);
    }

    /// Register these totals under `<prefix>.accesses` / `<prefix>.misses`
    /// (e.g. "mem.icache") in the metric registry.
    void publish(MetricRegistry& registry, std::string_view prefix) const;
};

class Cache {
public:
    explicit Cache(const CacheConfig& config);

    /// Access one address; returns the stall penalty in cycles (0 on hit).
    /// Misses allocate the line (write-allocate for stores).  A re-hit of
    /// the most recently used line — nearly every I-fetch — returns here:
    /// that line is already the newest in its set, so the LRU order stays
    /// as a full lookup would leave it, and the access is still counted.
    std::uint32_t access(std::uint32_t addr) {
        ++stats_.accesses;
        const std::uint32_t block = addr >> lineShift_;
        if (block == mruBlock_) return 0;
        return lookup(block);
    }

    /// True when the line containing addr is currently resident (no state
    /// change).  Only tests use it.
    [[nodiscard]] bool probe(std::uint32_t addr) const;

    /// Invalidate everything (e.g. between benchmark runs).
    void reset();

    [[nodiscard]] const CacheStats& stats() const { return stats_; }
    [[nodiscard]] const CacheConfig& config() const { return config_; }

private:
    struct Line {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint64_t lastUse = 0;  // for LRU
    };

    /// No block: line addresses are below 2^30 (lines are >= 4 bytes).
    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    /// Full set lookup of line address `block`; updates LRU state.
    std::uint32_t lookup(std::uint32_t block);

    CacheConfig config_;
    std::uint32_t lineShift_ = 0;  ///< log2(lineBytes)
    std::uint32_t setBits_ = 0;    ///< log2(numSets)
    std::uint32_t setMask_ = 0;    ///< numSets - 1
    std::uint32_t mruBlock_ = kNoBlock;  ///< line address of the last access
    std::vector<Line> lines_;  // sets * assoc, row-major by set
    CacheStats stats_;
    std::uint64_t tick_ = 0;
};

}  // namespace asbr
