#include "util/stats.hpp"

#include "util/ensure.hpp"

namespace asbr {

double improvement(std::uint64_t before, std::uint64_t after) {
    ASBR_ENSURE(before > 0, "improvement requires positive baseline");
    return (static_cast<double>(before) - static_cast<double>(after)) /
           static_cast<double>(before);
}

}  // namespace asbr
