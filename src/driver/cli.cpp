#include "driver/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "cc/compile.hpp"
#include "driver/names.hpp"

namespace asbr::driver {

const char* sharedOptionsHelp() {
    return "--quick --seed=N --adpcm=N --g721=N --threads=N --workload=W "
           "--csv --json=FILE --sample=W:M:S --job-timeout=MS "
           "--max-attempts=N --journal=DIR --resume";
}

std::string badNumber(std::string_view flag, std::string_view value,
                      int bits) {
    return "bad " + std::string(flag) + " value '" + std::string(value) +
           "' (want an unsigned decimal number below 2^" +
           std::to_string(bits) + ")";
}

std::optional<std::string> valueArg(const std::string& arg,
                                    std::string_view prefix) {
    if (!arg.starts_with(prefix)) return std::nullopt;
    return arg.substr(prefix.size());
}

std::optional<BenchId> workloadArg(const std::string& token,
                                   std::string& error) {
    const auto id = benchFromToken(token);
    if (!id)
        error = "unknown workload '" + token + "' (" + benchTokenList() + ")";
    return id;
}

BenchId requiredWorkload(const char* program, const std::string& bench,
                         const CliOptions& options) {
    std::string error;
    const auto id =
        bench.empty() ? options.workload : workloadArg(bench, error);
    if (!error.empty()) cliFail(program, error);
    if (!id)
        cliFail(program,
                std::string("--bench is required (") + benchTokenList() + ")");
    return *id;
}

std::optional<ValueStage> stageArg(const std::string& token,
                                   std::string& error) {
    const auto stage = stageFromToken(token);
    if (!stage) error = "unknown stage '" + token + "' (ex_end|mem_end|commit)";
    return stage;
}

namespace {

/// WARMUP:MEASURE:SKIP with MEASURE > 0.  The unit length W+M+S must stay
/// below 2^63, so that neither the sampling checkpoint grid nor a
/// pipeline's committed + maxCommits bound can wrap.
std::optional<SamplingConfig> parseSampleSpec(std::string_view spec) {
    const std::size_t first = spec.find(':');
    const std::size_t second = first == std::string_view::npos
                                   ? first
                                   : spec.find(':', first + 1);
    if (second == std::string_view::npos) return std::nullopt;
    const auto warmup = parseNumber<std::uint64_t>(spec.substr(0, first));
    const auto measure =
        parseNumber<std::uint64_t>(spec.substr(first + 1, second - first - 1));
    const auto skip = parseNumber<std::uint64_t>(spec.substr(second + 1));
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
    if (!warmup || !measure || !skip || *measure == 0 || *warmup >= kLimit ||
        *measure >= kLimit - *warmup || *skip >= kLimit - *warmup - *measure)
        return std::nullopt;
    return SamplingConfig{*warmup, *measure, *skip};
}

std::atomic<bool> gInterrupted{false};

extern "C" void onInterrupt(int) { gInterrupted.store(true); }

/// A stdio handle closed at scope exit (a writer checks its own fclose).
struct CloseFile {
    void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, CloseFile>;

[[noreturn]] void ioFailure(const char* action, const std::string& path) {
    throw std::runtime_error("cannot " + std::string(action) + " '" + path +
                             "': " + std::strerror(errno));
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
    if (numArg(arg, "--seed=", out.seed, error) ||
        numArg(arg, "--adpcm=", out.adpcmSamples, error) ||
        numArg(arg, "--g721=", out.g721Samples, error) ||
        numArg(arg, "--threads=", out.threads, error) ||
        numArg(arg, "--job-timeout=", out.jobTimeoutMs, error))
        return true;
    if (const auto token = valueArg(arg, "--workload=")) {
        if (const auto id = workloadArg(*token, error)) out.workload = *id;
        return true;
    }
    if (arg == "--csv") {
        out.csv = true;
        return true;
    }
    std::uint64_t attempts = 0;
    if (numArg(arg, "--max-attempts=", attempts, error)) {
        if (!error.empty()) return true;
        if (attempts == 0)
            error = "--max-attempts must be >= 1";
        else
            out.maxAttempts = attempts;
        return true;
    }
    if (const auto dir = valueArg(arg, "--journal=")) {
        out.journalDir = *dir;
        if (out.journalDir.empty())
            error = "--journal needs a directory (--journal=DIR)";
        return true;
    }
    if (arg == "--resume") {
        out.resume = true;
        return true;
    }
    if (const auto path = valueArg(arg, "--json=")) {
        out.jsonPath = *path;
        return true;
    }
    if (const auto spec = valueArg(arg, "--sample=")) {
        // --sample=WARMUP:MEASURE:SKIP, instruction counts per sampling unit.
        if (const auto sampling = parseSampleSpec(*spec)) {
            out.sample = *sampling;
        } else {
            error = "bad --sample spec '" + *spec +
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

void checkJournalFlags(const char* program, const CliOptions& options,
                       bool durable) {
    if (durable && options.resume && options.journalDir.empty())
        cliFail(program, "--resume requires --journal=DIR");
    if (!durable && (!options.journalDir.empty() || options.resume))
        cliFail(program,
                "--journal/--resume apply to asbr-sweep and asbr-faults "
                "campaign (docs/robustness.md)");
}

const std::atomic<bool>* catchInterrupts() {
    std::signal(SIGINT, onInterrupt);
    std::signal(SIGTERM, onInterrupt);
    return &gInterrupted;
}

std::size_t samplesFor(const CliOptions& options, BenchId id) {
    const bool heavy =
        id == BenchId::kG721Encode || id == BenchId::kG721Decode;
    const std::size_t want = heavy ? options.g721Samples : options.adpcmSamples;
    return std::min(want, benchMaxSamples(id));
}

std::string readFile(const std::string& path) {
    const File file(std::fopen(path.c_str(), "rb"));
    if (!file) ioFailure("open", path);
    std::string text;
    char buffer[1 << 16];
    while (const std::size_t n =
               std::fread(buffer, 1, sizeof buffer, file.get()))
        text.append(buffer, n);
    if (std::ferror(file.get())) ioFailure("read", path);
    return text;
}

void writeOutput(const std::string& path, const std::string& text,
                 const std::string& what) {
    if (path == "-") {
        if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size() ||
            std::fflush(stdout) != 0)
            ioFailure("write", "-");
        return;
    }
    File file(std::fopen(path.c_str(), "wb"));
    if (!file) ioFailure("open", path);
    const bool written =
        std::fwrite(text.data(), 1, text.size(), file.get()) == text.size();
    // fclose flushes the buffer, so a full disk surfaces here at the latest.
    if (std::fclose(file.release()) != 0 || !written) ioFailure("write", path);
    std::fprintf(stderr, "wrote %s to %s\n", what.c_str(), path.c_str());
}

JsonValue readJson(const std::string& path) {
    JsonParseResult parsed = parseJson(readFile(path));
    if (!parsed.ok())
        throw std::runtime_error(path + ": JSON parse error: " + parsed.error);
    return std::move(*parsed.value);
}

int validateFile(const std::string& path, const SchemaSpec* spec) {
    const JsonValue doc = readJson(path);
    if (spec == nullptr) {
        const JsonValue* schema = doc.find("schema");
        if (schema == nullptr || !schema->isString()) {
            std::fprintf(stderr, "%s: missing string member 'schema'\n",
                         path.c_str());
            return 1;
        }
        spec = findSchema(schema->asString());
        if (spec == nullptr) {
            std::fprintf(stderr, "%s: unknown schema '%s'\n", path.c_str(),
                         schema->asString().c_str());
            return 1;
        }
    }
    const ReportValidation validation = validate(doc, *spec);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    if (!validation.ok()) return 1;
    std::printf("%s: valid %s v%llu document\n", path.c_str(), spec->id.c_str(),
                static_cast<unsigned long long>(spec->version));
    return 0;
}

Program loadProgram(const std::string& path, bool schedule) {
    const std::string source = readFile(path);
    if (path.ends_with(".s") || path.ends_with(".asm")) {
        Program program = assemble(source);
        if (schedule) cc::scheduleConditionChains(program);
        return program;
    }
    cc::CompileOptions options;
    options.scheduleConditions = schedule;
    return cc::compile(source, options).program;
}

}  // namespace asbr::driver
