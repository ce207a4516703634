// The one command-line front end of every driver-backed binary.
//
// The bench/ table regenerators, the asbr-stats / asbr-faults / asbr-sweep /
// asbr-verify CLIs and examples/asbr_tool parse numbers, name workloads and
// stages, load programs and read or write files through these functions, so
// one rule holds everywhere.  consumeSharedOption() handles one shared
// argument; binaries keep their own loop for tool-specific flags.  A bad
// command line ends in one structured line on stderr and exit code 2:
//
//   <program>: unknown option '--frob' (try --help)
//   <program>: bad --seed value '12abc' (want an unsigned decimal number
//              below 2^64)
//
// A file that cannot be read or written throws std::runtime_error, which
// every tool's top-level handler prints as one line before exiting 1.
#pragma once

#include <atomic>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "asm/program.hpp"
#include "report/schema.hpp"
#include "sim/fetch_customizer.hpp"
#include "sim/sampling.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// Options every driver-backed binary understands:
///   --quick        small inputs (CI-speed smoke run)
///   --seed=N       input generator seed
///   --adpcm=N      ADPCM sample count
///   --g721=N       G.721 sample count
///   --threads=N    engine worker count (0 = hardware concurrency)
///   --workload=W   restrict to one workload (token, e.g. g721-enc)
///   --csv          additionally print tables as CSV
///   --json=FILE    write the machine-readable report ("-" = stdout)
///   --sample=W:M:S sampled simulation: warmup/measure/skip instructions
///                  per window (docs/simulation.md)
///   --job-timeout=MS  per-job wall-clock watchdog (docs/robustness.md)
///   --max-attempts=N  bounded retry before a job fails/quarantines
///   --journal=DIR  write-ahead job journal (asbr-sweep, asbr-faults
///                  campaign; other tools reject it with a clear error)
///   --resume       resume a --journal=DIR left by an earlier run
struct CliOptions {
    std::size_t adpcmSamples = 100'000;
    std::size_t g721Samples = 20'000;
    std::uint64_t seed = 2001;
    std::size_t threads = 1;
    std::optional<BenchId> workload;  ///< --workload= filter; nullopt = all
    bool csv = false;
    std::string jsonPath;  ///< empty = no JSON export; "-" = stdout
    std::optional<SamplingConfig> sample;  ///< --sample= window geometry
    std::string journalDir;          ///< --journal=DIR; empty = no journal
    bool resume = false;             ///< --resume (requires --journal)
    std::uint64_t jobTimeoutMs = 0;  ///< --job-timeout=MS; 0 = no watchdog
    std::uint64_t maxAttempts = 1;   ///< --max-attempts=N; >= 1
};

/// Help-text fragment describing the shared options (one line, no newline).
[[nodiscard]] const char* sharedOptionsHelp();

/// The one number rule: a non-empty run of decimal digits whose value fits
/// in T — no sign, no blanks, no suffix (std::from_chars rejects all three).
template <std::unsigned_integral T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) {
    T value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

/// "bad <flag> value '<value>' (want an unsigned decimal number below
/// 2^<bits>)" — the diagnostic for a value parseNumber rejects.
[[nodiscard]] std::string badNumber(std::string_view flag,
                                    std::string_view value, int bits);

/// The VALUE of a "--prefix=VALUE" argument; nullopt when `arg` does not
/// start with `prefix`.
[[nodiscard]] std::optional<std::string> valueArg(const std::string& arg,
                                                  std::string_view prefix);

/// Numeric "--prefix=N" argument.  False when `arg` does not start with
/// `prefix`.  Otherwise true, with N stored in `out`, or — when N breaks the
/// number rule — `out` untouched and `error` set to the one-line diagnostic
/// (the consumeSharedOption contract).
template <std::unsigned_integral T>
[[nodiscard]] bool numArg(const std::string& arg, std::string_view prefix,
                          T& out, std::string& error) {
    const std::optional<std::string> text = valueArg(arg, prefix);
    if (!text) return false;
    if (const std::optional<T> value = parseNumber<T>(*text))
        out = *value;
    else
        error = badNumber(prefix.substr(0, prefix.size() - 1), *text,
                          std::numeric_limits<T>::digits);
    return true;
}

/// The workload `token` names; nullopt, with `error` set to "unknown
/// workload '<token>' (adpcm-enc|...)", for anything else.
[[nodiscard]] std::optional<BenchId> workloadArg(const std::string& token,
                                                 std::string& error);

/// The workload of a single-workload command: its --bench=B token (`bench`,
/// the historical spelling), else the shared --workload=W.  A bad token, or
/// neither flag, exits through cliFail.
[[nodiscard]] BenchId requiredWorkload(const char* program,
                                       const std::string& bench,
                                       const CliOptions& options);

/// The BDT update stage `token` names; nullopt, with `error` set to
/// "unknown stage '<token>' (ex_end|mem_end|commit)", for anything else.
[[nodiscard]] std::optional<ValueStage> stageArg(const std::string& token,
                                                 std::string& error);

/// Try to consume `arg` as one of the shared options.  Returns true when the
/// argument was recognized; a recognized-but-invalid value (e.g.
/// --workload=quake3 or --seed=12abc) also returns true and sets `error` to a
/// one-line diagnostic the caller must report (via cliFail or its own
/// prefix).
[[nodiscard]] bool consumeSharedOption(const std::string& arg, CliOptions& out,
                                       std::string& error);

/// Print "<program>: <message>" to stderr and exit(2) — the uniform
/// structured rejection for bad command lines.
[[noreturn]] void cliFail(const char* program, const std::string& message);

/// Reject the journal flags where they do not apply, through cliFail: a tool
/// that keeps no journal (`durable` false) takes neither --journal nor
/// --resume, and a durable one takes --resume only with --journal=DIR.
void checkJournalFlags(const char* program, const CliOptions& options,
                       bool durable);

/// Route SIGINT and SIGTERM to a flag and return it, for
/// DurablePolicy::interrupted: a durable run checkpoints instead of dying.
[[nodiscard]] const std::atomic<bool>* catchInterrupts();

/// Samples to feed a given workload under these options (capped at the
/// program's buffer capacity).
[[nodiscard]] std::size_t samplesFor(const CliOptions& options, BenchId id);

/// The whole file at `path`.  Throws std::runtime_error naming the path
/// when it cannot be opened or read.
[[nodiscard]] std::string readFile(const std::string& path);

/// Write `text` to `path` ("-" = stdout) and, for a file, print
/// "wrote <what> to <path>" on stderr.  Every byte is flushed and checked
/// before that line: an open, write or close failure (a full disk included)
/// throws std::runtime_error naming the path, and nothing says "wrote".
void writeOutput(const std::string& path, const std::string& text,
                 const std::string& what);

/// The JSON document in the file at `path`.  Throws std::runtime_error when
/// the file cannot be read ("cannot open ...") or does not parse
/// ("<path>: JSON parse error: ...").
[[nodiscard]] JsonValue readJson(const std::string& path);

/// `validate FILE`: check the report at `path` against `spec`, or, when
/// `spec` is null, against the schema its "schema" member names.  Prints
/// "<path>: valid <schema> v<N> document" on stdout, or each problem as
/// "<path>: ..." on stderr, and returns the exit code (0 valid, 1 not).
[[nodiscard]] int validateFile(const std::string& path,
                               const SchemaSpec* spec = nullptr);

/// Compile or assemble the program at `path`: a .s or .asm file is
/// assembled (then condition-scheduled when `schedule` is set); anything
/// else is mcc C.  Throws on an unreadable file or a front-end error.
[[nodiscard]] Program loadProgram(const std::string& path, bool schedule);

}  // namespace asbr::driver
