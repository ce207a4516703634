// hostbench — host-time benchmark of the ASBR toolchain (README.md).
//
//   hostbench --workload W --seed N --seconds S --trace 0|1 --pins FILE
//   hostbench --write-pins FILE
//
// Prints one line per metric, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"

namespace {

using namespace hostbench;

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "cold-asbr|warm-sweep|sampled-sweep --seed N --seconds S "
                 "--trace 0|1 --pins FILE\n"
                 "       hostbench --write-pins FILE\n",
                 message.c_str());
    std::exit(2);
}

std::optional<Workload> workloadFromName(const std::string& name) {
    if (name == "cold-asbr") return Workload::kColdAsbr;
    if (name == "warm-sweep") return Workload::kWarmSweep;
    if (name == "sampled-sweep") return Workload::kSampledSweep;
    return std::nullopt;
}

double number(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value >= 0))
        usage(flag + " needs a non-negative number, got '" + text + "'");
    return value;
}

}  // namespace

int main(int argc, char** argv) {
    std::optional<Workload> workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    std::string pins;
    std::string writePinsTo;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            workload = workloadFromName(value);
            if (!workload) usage("unknown workload '" + value + "'");
        } else if (flag == "--seed") {
            seed = static_cast<std::uint64_t>(number(flag, value));
        } else if (flag == "--seconds") {
            seconds = number(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            trace = value == "1";
        } else if (flag == "--pins") {
            pins = value;
        } else if (flag == "--write-pins") {
            writePinsTo = value;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }

    try {
        if (!writePinsTo.empty()) {
            writePins(writePinsTo);
            return 0;
        }
        if (!workload || pins.empty())
            usage("--workload and --pins are required");
        const Gate gate(pins);
        const RunOutcome outcome =
            trace ? runTraced(*workload, seed, gate)
                  : runUntraced(*workload, seed, seconds, gate);

        asbr::JsonObject metrics;
        for (const Metric& m : outcome.metrics) {
            if (!std::isfinite(m.value)) {
                std::fprintf(stderr, "hostbench: metric %s is not finite\n",
                             m.name.c_str());
                return 1;
            }
            std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            metrics.emplace_back(
                m.name,
                asbr::JsonObject{{"value", m.value}, {"unit", m.unit}});
        }
        std::printf("jobs attempted %llu, failed %llu\n",
                    static_cast<unsigned long long>(outcome.attempted),
                    static_cast<unsigned long long>(outcome.failed));
        const asbr::JsonValue result(asbr::JsonObject{
            {"correct", outcome.failed == 0},
            {"attempted", outcome.attempted},
            {"failed", outcome.failed},
            {"metrics", std::move(metrics)},
        });
        std::printf("%s\n", result.dump().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
}
