// Host-time benchmark of the ASBR toolchain: shared declarations.
//
// README.md in this directory describes the three workloads, every metric
// and the layer and workload it is expected to move.  The benchmark only
// calls the repository's public library API; the traced run wraps spans
// around those calls from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "driver/engine.hpp"
#include "report/report.hpp"

namespace hostbench {

using asbr::driver::JobResult;
using asbr::driver::SimEngine;
using asbr::driver::SimJob;

enum class Workload { kColdAsbr, kWarmSweep, kSampledSweep };

// ---- Job sets (jobs.cpp) --------------------------------------------------

/// Benchmark seeds map onto a pool of input-generator seeds whose report
/// digests are pinned in pins.txt, so any seed can be checked.
inline constexpr std::uint64_t kInputSeedBase = 2001;
inline constexpr std::uint64_t kInputSeedPool = 4;

[[nodiscard]] std::uint64_t inputSeedFor(std::uint64_t benchSeed);

/// One round of a workload, in canonical order: the cold job cycle, or the
/// whole sweep grid.
[[nodiscard]] std::vector<SimJob> roundJobs(Workload workload,
                                            std::uint64_t inputSeed);

/// sampled-sweep's window geometry, in instructions: warm-up, measure, skip.
inline constexpr asbr::SamplingConfig kSampling{1'000, 2'000, 200'000};

/// Worker threads of the two sweeps: the host's cores, at most four.
[[nodiscard]] std::size_t sweepThreads();

/// Instructions a job simulated: committed instructions of a full run, all
/// executed instructions of a sampled run.
[[nodiscard]] std::uint64_t simulatedInstructions(const JobResult& result);

// ---- Timing and spans ------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point start);

/// One timed call into a layer's public API.
struct Span {
    std::string layer;       ///< metric stem, e.g. "sim.pipeline"
    double seconds = 0.0;
    std::uint64_t work = 0;  ///< instructions, cycles, events or bytes
    /// sim.pipeline only: "<workload>/<predictor>" pairs runs with and
    /// without an AsbrUnit for asbr.hook_cost_ratio.
    std::string group;
    bool withUnit = false;
};

/// Spans of one job, or of one phase; kept in memory until the run ends.
struct Spans {
    std::vector<Span> list;

    Span& add(std::string_view layer, double seconds, std::uint64_t work = 0) {
        list.push_back({std::string(layer), seconds, work, {}, false});
        return list.back();
    }
    void append(const Spans& other) {
        list.insert(list.end(), other.list.begin(), other.list.end());
    }
};

/// Call `body`; when `spans` is non-null, record its wall time under
/// `layer`.  Returns whatever `body` returns, references included.
template <class Body>
decltype(auto) timed(Spans* spans, std::string_view layer, Body&& body) {
    if (spans == nullptr) return body();
    const Clock::time_point start = Clock::now();
    decltype(auto) out = body();
    spans->add(layer, secondsSince(start));
    return out;
}

// ---- Correctness gate (gate.cpp) ------------------------------------------

/// Checks every job's asbr.sim_report bytes against its pinned digest.  The
/// bytes carry no host time and do not depend on the thread count, so a
/// speed-up that changes any simulated count or report byte fails here.
class Gate {
public:
    /// Load "<digest> <job key>" lines; '#' starts a comment.
    explicit Gate(const std::string& pinsPath);

    /// Serialize, schema-validate and digest `report`.  False (with a
    /// diagnostic on stderr) when the document is invalid or its digest is
    /// not the one pinned for `key`.  `spans` (nullable) times each step.
    bool check(const std::string& key, const asbr::SimReport& report,
               Spans* spans = nullptr) const;

private:
    std::map<std::string, std::string> pins_;  ///< job key -> digest
};

/// Jobs of one round that fail the gate or break committed(base) ==
/// committed(asbr) + folded.  `spans` (nullable, one per job) times the
/// report calls.
[[nodiscard]] std::uint64_t roundFailures(SimEngine& engine,
                                          std::span<const SimJob> jobs,
                                          std::span<const JobResult> results,
                                          const Gate& gate,
                                          std::span<Spans> spans = {});

/// Regenerate the pins for every workload and pooled input seed.
void writePins(const std::string& path);

// ---- Runs (untraced.cpp, traced.cpp) --------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOutcome {
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Resolve every artifact `jobs` need on `engine`, on up to `threads`
/// workers: first each workload (program, input, profile, baseline
/// accuracy), then each selection.  `spans` (nullable) times every call.
void resolveArtifacts(SimEngine& engine, std::span<const SimJob> jobs,
                      std::size_t threads, Spans* spans);

/// End-to-end metrics, tracing off.
[[nodiscard]] RunOutcome runUntraced(Workload workload, std::uint64_t seed,
                                     double seconds, const Gate& gate);

/// Per-layer metrics from spans around every layer call, plus the cost of
/// the traced run relative to an untraced pass over the same jobs.
[[nodiscard]] RunOutcome runTraced(Workload workload, std::uint64_t seed,
                                   const Gate& gate);

}  // namespace hostbench
