#include "mem/cache.hpp"

#include <bit>
#include <string>

#include "util/metrics.hpp"

namespace asbr {

void CacheStats::publish(MetricRegistry& registry,
                         std::string_view prefix) const {
    const std::string base(prefix);
    registry.counter(base + ".accesses", "cache accesses (timing probes)")
        .add(accesses);
    registry.counter(base + ".misses", "cache misses (each costs missPenalty)")
        .add(misses);
}

namespace {
bool isPow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Cache::Cache(const CacheConfig& config) : config_(config) {
    ASBR_ENSURE(isPow2(config.lineBytes) && config.lineBytes >= 4,
                "line size must be a power of two >= 4");
    ASBR_ENSURE(config.assoc >= 1, "associativity must be >= 1");
    ASBR_ENSURE(config.sizeBytes % (config.lineBytes * config.assoc) == 0,
                "size must be a multiple of lineBytes*assoc");
    ASBR_ENSURE(isPow2(config.numSets()), "number of sets must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(config.lineBytes));
    setBits_ = static_cast<std::uint32_t>(std::countr_zero(config.numSets()));
    setMask_ = config.numSets() - 1;
    lines_.resize(config.numLines());
}

std::uint32_t Cache::lookup(std::uint32_t block) {
    ++tick_;
    mruBlock_ = block;
    const std::uint32_t tag = block >> setBits_;
    Line* base = &lines_[(block & setMask_) * config_.assoc];
    Line* victim = base;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line& line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = tick_;
            return 0;
        }
        if (!line.valid || line.lastUse < victim->lastUse ||
            (victim->valid && !line.valid)) {
            victim = &line;
        }
    }
    ++stats_.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick_;
    return config_.missPenalty;
}

bool Cache::probe(std::uint32_t addr) const {
    const std::uint32_t block = addr >> lineShift_;
    const std::uint32_t tag = block >> setBits_;
    const Line* base = &lines_[(block & setMask_) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
}

void Cache::reset() {
    for (Line& line : lines_) line = Line{};
    stats_ = CacheStats{};
    tick_ = 0;
    mruBlock_ = kNoBlock;
}

}  // namespace asbr
