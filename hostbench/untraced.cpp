// The untraced run: end-to-end metrics of one workload.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"

namespace hostbench {

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

/// The process's CPU time: user + system, every thread.
double cpuSeconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Linearly interpolated quantile `q` in [0, 1] (0 when `values` is empty).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Jobs the percentiles keep: p90 needs at least ten samples beyond it.
constexpr std::size_t kMinJobs = 100;
/// Set-ups per run; the median is reported.
constexpr int kSetups = 5;

}  // namespace

RunOutcome runUntraced(Workload workload, std::uint64_t seed, double seconds,
                       const Gate& gate) {
    RunOutcome out;
    const std::vector<SimJob> jobs = roundJobs(workload, inputSeedFor(seed));
    const bool cold = workload == Workload::kColdAsbr;
    asbr::driver::EngineConfig config;
    config.threads = cold ? 1 : sweepThreads();

    // A sweep's set-up is a fresh engine resolving every artifact of its
    // grid.  Cold jobs resolve their own artifacts, so their set-up is one
    // untimed warm-up job: it finishes the process's lazy initialisation
    // (predictor registry, allocator arenas, host caches).
    std::vector<double> setups;
    std::unique_ptr<SimEngine> engine;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point start = Clock::now();
        engine = std::make_unique<SimEngine>(config);
        if (cold) {
            const JobResult warmUp = engine->runOne(jobs.front());
            setups.push_back(secondsSince(start));
            out.failed += roundFailures(*engine, {&jobs.front(), 1},
                                        {&warmUp, 1}, gate);
            ++out.attempted;
        } else {
            resolveArtifacts(*engine, jobs, config.threads, nullptr);
            setups.push_back(secondsSince(start));
        }
    }

    // Closed loop of whole rounds, so every run has the same job mix.  Stop
    // once the timed part is within half a round of `seconds` and the kept
    // half of the rounds holds kMinJobs jobs.
    struct Round {
        double wall = 0.0;
        double cpu = 0.0;
        std::uint64_t instructions = 0;
        std::vector<double> simSeconds;
    };
    std::vector<Round> rounds;
    const Clock::time_point start = Clock::now();
    do {
        Round round;
        const Clock::time_point roundStart = Clock::now();
        const double cpuStart = cpuSeconds();
        const auto record = [&](const JobResult& result) {
            round.simSeconds.push_back(result.simSeconds);
            round.instructions += simulatedInstructions(result);
        };
        if (cold) {
            for (const SimJob& job : jobs) {
                SimEngine fresh(config);
                const JobResult result = fresh.runOne(job);
                out.failed +=
                    roundFailures(fresh, {&job, 1}, {&result, 1}, gate);
                record(result);
            }
        } else {
            const std::vector<JobResult> results = engine->run(jobs);
            out.failed += roundFailures(*engine, jobs, results, gate);
            for (const JobResult& result : results) record(result);
        }
        round.wall = secondsSince(roundStart);
        round.cpu = cpuSeconds() - cpuStart;
        rounds.push_back(std::move(round));
    } while ((rounds.size() + 1) / 2 * jobs.size() < kMinJobs ||
             secondsSince(start) + rounds.back().wall / 2 < seconds);
    out.attempted += rounds.size() * jobs.size();

    // The timed metrics keep the faster half of the repetitions of each
    // measurement.  Every round does the same work, and every job repeats
    // once per round.  Load from neighbours on the host slows some of them
    // down and never speeds one up, so the slower half is where that
    // interference lives.
    const std::size_t kept = (rounds.size() + 1) / 2;
    std::sort(rounds.begin(), rounds.end(),
              [](const Round& a, const Round& b) { return a.wall < b.wall; });
    double wall = 0.0;
    double cpu = 0.0;
    double instructions = 0.0;
    for (std::size_t r = 0; r < kept; ++r) {
        wall += rounds[r].wall;
        cpu += rounds[r].cpu;
        instructions += static_cast<double>(rounds[r].instructions);
    }
    std::vector<double> simSeconds;
    for (std::size_t job = 0; job < jobs.size(); ++job) {
        std::vector<double> repeats;
        for (const Round& round : rounds)
            repeats.push_back(round.simSeconds[job]);
        std::sort(repeats.begin(), repeats.end());
        simSeconds.insert(simSeconds.end(), repeats.begin(),
                          repeats.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    std::printf("rounds run %zu, kept the faster %zu\n", rounds.size(), kept);

    out.metrics = {
        {"setup_s", percentile(setups, 0.5), "s"},
        {"host_mips", instructions / wall / 1e6, "MIPS"},
        {"cpu_s_per_job",
         cpu / static_cast<double>(kept * jobs.size()), "s"},
        {"sim_s_p50", percentile(simSeconds, 0.5), "s"},
        {"sim_s_p90", percentile(simSeconds, 0.9), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return out;
}

}  // namespace hostbench
