#include "driver/deadline.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace asbr::driver {

void Deadline::check() const {
    if (interrupted_ != nullptr &&
        interrupted_->load(std::memory_order_relaxed))
        throw JobInterruptedError(
            "job interrupted: checkpoint requested (SIGINT/SIGTERM)");
    if (wallMs_ == 0) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    if (static_cast<std::uint64_t>(elapsed) > wallMs_)
        throw JobTimeoutError(watchdogMessage("job", "wall-clock", wallMs_,
                                              "ms"));
}

std::uint64_t backoffDelayMs(std::uint64_t attempt) {
    if (attempt <= 1) return 0;
    const std::uint64_t shift = std::min<std::uint64_t>(attempt - 2, 63);
    return std::min<std::uint64_t>(400, 25ULL << shift);
}

}  // namespace asbr::driver
