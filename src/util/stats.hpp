// Small statistics helpers used by the profiler and bench harness.
#pragma once

#include <cstdint>

namespace asbr {

/// Running counter pair expressing an accuracy/hit-rate style ratio.
struct Ratio {
    std::uint64_t hits = 0;
    std::uint64_t total = 0;

    void record(bool hit) {
        ++total;
        hits += hit ? 1 : 0;
    }

    /// hits/total, or 0 when nothing was recorded.
    [[nodiscard]] double value() const {
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/// Relative improvement of `after` over `before` (positive = got faster),
/// e.g. cycles dropping 100 -> 84 yields 0.16.
[[nodiscard]] double improvement(std::uint64_t before, std::uint64_t after);

}  // namespace asbr
