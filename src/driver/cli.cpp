#include "driver/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "driver/names.hpp"

namespace asbr::driver {

const char* sharedOptionsHelp() {
    return "--quick --seed=N --adpcm=N --g721=N --threads=N --workload=W "
           "--csv --json=FILE --sample=W:M:S --job-timeout=MS "
           "--max-attempts=N --journal=DIR --resume";
}

std::optional<std::uint64_t> numArg(const std::string& arg,
                                    const char* prefix) {
    const std::size_t len = std::strlen(prefix);
    if (arg.rfind(prefix, 0) != 0) return std::nullopt;
    return std::strtoull(arg.c_str() + len, nullptr, 10);
}

namespace {

/// One --sample field: a non-empty run of decimal digits that fits in 64
/// bits (no sign, no blanks — from_chars rejects both).
std::optional<std::uint64_t> sampleField(std::string_view text) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

/// WARMUP:MEASURE:SKIP with MEASURE > 0.  The unit length W+M+S must stay
/// below 2^63, so that neither the sampling checkpoint grid nor a
/// pipeline's committed + maxCommits bound can wrap.
std::optional<SamplingConfig> parseSampleSpec(std::string_view spec) {
    const std::size_t first = spec.find(':');
    const std::size_t second = first == std::string_view::npos
                                   ? first
                                   : spec.find(':', first + 1);
    if (second == std::string_view::npos) return std::nullopt;
    const auto warmup = sampleField(spec.substr(0, first));
    const auto measure = sampleField(spec.substr(first + 1, second - first - 1));
    const auto skip = sampleField(spec.substr(second + 1));
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
    if (!warmup || !measure || !skip || *measure == 0 || *warmup >= kLimit ||
        *measure >= kLimit - *warmup || *skip >= kLimit - *warmup - *measure)
        return std::nullopt;
    return SamplingConfig{*warmup, *measure, *skip};
}

}  // namespace

bool consumeSharedOption(const std::string& arg, CliOptions& out,
                         std::string& error) {
    error.clear();
    if (arg == "--quick") {
        out.adpcmSamples = 8'000;
        out.g721Samples = 2'000;
        return true;
    }
    if (const auto v = numArg(arg, "--seed=")) {
        out.seed = *v;
        return true;
    }
    if (const auto v = numArg(arg, "--adpcm=")) {
        out.adpcmSamples = *v;
        return true;
    }
    if (const auto v = numArg(arg, "--g721=")) {
        out.g721Samples = *v;
        return true;
    }
    if (const auto v = numArg(arg, "--threads=")) {
        out.threads = *v;
        return true;
    }
    if (arg.rfind("--workload=", 0) == 0) {
        const std::string token = arg.substr(11);
        const auto id = benchFromToken(token);
        if (!id) {
            error = "unknown workload '" + token + "' (" + benchTokenList() +
                    ")";
            return true;
        }
        out.workload = *id;
        return true;
    }
    if (arg == "--csv") {
        out.csv = true;
        return true;
    }
    if (const auto v = numArg(arg, "--job-timeout=")) {
        out.jobTimeoutMs = *v;
        return true;
    }
    if (const auto v = numArg(arg, "--max-attempts=")) {
        if (*v == 0) {
            error = "--max-attempts must be >= 1";
            return true;
        }
        out.maxAttempts = *v;
        return true;
    }
    if (arg.rfind("--journal=", 0) == 0) {
        out.journalDir = arg.substr(10);
        if (out.journalDir.empty()) {
            error = "--journal needs a directory (--journal=DIR)";
            return true;
        }
        return true;
    }
    if (arg == "--resume") {
        out.resume = true;
        return true;
    }
    if (arg.rfind("--json=", 0) == 0) {
        out.jsonPath = arg.substr(7);
        return true;
    }
    if (arg.rfind("--sample=", 0) == 0) {
        // --sample=WARMUP:MEASURE:SKIP, instruction counts per sampling unit.
        const std::string spec = arg.substr(9);
        if (const auto sampling = parseSampleSpec(spec)) {
            out.sample = *sampling;
        } else {
            error = "bad --sample spec '" + spec +
                    "' (want WARMUP:MEASURE:SKIP, unsigned decimal counts "
                    "with MEASURE > 0 and a sum below 2^63)";
        }
        return true;
    }
    return false;
}

void cliFail(const char* program, const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program, message.c_str());
    std::exit(2);
}

std::size_t samplesFor(const CliOptions& options, BenchId id) {
    const bool heavy =
        id == BenchId::kG721Encode || id == BenchId::kG721Decode;
    const std::size_t want = heavy ? options.g721Samples : options.adpcmSamples;
    return std::min(want, benchMaxSamples(id));
}

}  // namespace asbr::driver
