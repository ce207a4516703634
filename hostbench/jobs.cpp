// The job sets of the three workloads.
//
// Each codec's input is sized for about the same number of simulated
// instructions, so that every codec's jobs cost about the same: a round
// then takes a few seconds on one core (cold-asbr) or on four (the sweeps),
// a run holds several rounds and at least the 100 jobs the p90 needs, and
// the per-job percentiles do not straddle a gap between codecs.
#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "driver/cli.hpp"
#include "driver/sweep.hpp"

namespace hostbench {

using asbr::BenchId;
using asbr::ValueStage;

std::uint64_t inputSeedFor(std::uint64_t benchSeed) {
    return kInputSeedBase + benchSeed % kInputSeedPool;
}

std::size_t sweepThreads() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::uint64_t simulatedInstructions(const JobResult& result) {
    return result.sampled != nullptr ? result.sampled->totalInstructions
                                     : result.stats.committed;
}

namespace {

/// Input samples giving about `instructions` simulated instructions.
std::size_t samplesFor(BenchId id, std::size_t instructions) {
    // Instructions per input sample, measured on the speech generator.
    std::size_t perSample = 1;
    switch (id) {
        case BenchId::kAdpcmEncode: perSample = 107; break;
        case BenchId::kAdpcmDecode: perSample = 80; break;
        case BenchId::kG721Encode: perSample = 3'780; break;
        case BenchId::kG721Decode: perSample = 3'520; break;
        case BenchId::kG711Encode: perSample = 136; break;
        case BenchId::kG711Decode: perSample = 55; break;
    }
    return instructions / perSample;
}

/// The asbr-stats `run` flavours a user waits on: --asbr (bimodal),
/// --predictor-aware --predictor=tage, and --static-folds.
std::vector<SimJob> coldCycle(std::uint64_t inputSeed) {
    std::vector<SimJob> jobs;
    for (const BenchId id : asbr::kAllBenchesExtended) {
        SimJob job;
        job.workload = id;
        job.seed = inputSeed;
        job.samples = samplesFor(id, 600'000);
        job.asbr = true;
        jobs.push_back(job);

        SimJob aware = job;
        aware.predictor = "tage";
        aware.predictorAware = true;
        jobs.push_back(aware);

        SimJob statics = job;
        statics.staticFolds = true;
        jobs.push_back(statics);
    }
    return jobs;
}

/// Six codecs x five predictor families x {baseline, ASBR at two BIT sizes
/// x two update stages}, expanded by the driver's own sweep grid.
std::vector<SimJob> sweepGrid(std::uint64_t inputSeed) {
    asbr::driver::SweepGrid grid;
    grid.predictors = {"bimodal", "bi512", "gshare", "tage", "perceptron"};
    grid.bitSizes = {0, 4};
    grid.stages = {ValueStage::kExEnd, ValueStage::kCommit};
    grid.includeBaseline = true;
    asbr::driver::CliOptions options;
    options.seed = inputSeed;
    return asbr::driver::expandSweep(grid, options);
}

}  // namespace

std::vector<SimJob> roundJobs(Workload workload, std::uint64_t inputSeed) {
    switch (workload) {
        case Workload::kColdAsbr:
            return coldCycle(inputSeed);
        case Workload::kWarmSweep: {
            std::vector<SimJob> jobs = sweepGrid(inputSeed);
            for (SimJob& job : jobs)
                job.samples = samplesFor(job.workload, 1'200'000);
            return jobs;
        }
        case Workload::kSampledSweep: {
            // ~15M instructions per job: the CLI's full input size for
            // ADPCM and G.711, a fifth of it for G.721, so that a run holds
            // two rounds.  Windows cover ~1.5% of the instructions, so
            // functional fast-forward does most of the work.  Selection
            // skips the bimodal baseline run (accuracyRef off), which would
            // otherwise make set-up as long as a round.
            std::vector<SimJob> jobs = sweepGrid(inputSeed);
            for (SimJob& job : jobs) {
                job.samples = samplesFor(job.workload, 15'000'000);
                job.sampled = true;
                job.sampling = kSampling;
                job.accuracyRef = false;
            }
            return jobs;
        }
    }
    return {};
}

}  // namespace hostbench
