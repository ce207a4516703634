#include "driver/sweep.hpp"

#include <iterator>

namespace asbr::driver {

std::vector<SimJob> expandSweep(const SweepGrid& grid,
                                const CliOptions& options) {
    std::vector<BenchId> workloads = grid.workloads;
    if (workloads.empty())
        workloads.assign(std::begin(kAllBenchesExtended),
                         std::end(kAllBenchesExtended));

    std::vector<SimJob> jobs;
    for (const BenchId id : workloads) {
        SimJob base;
        base.workload = id;
        base.seed = options.seed;
        base.samples = samplesFor(options, id);
        base.figure = "sweep";
        if (options.sample) {
            base.sampled = true;
            base.sampling = *options.sample;
        }
        for (const std::string& predictor : grid.predictors) {
            base.predictor = predictor;
            if (grid.includeBaseline) {
                SimJob job = base;
                job.asbr = false;
                jobs.push_back(job);
            }
            for (const std::size_t bits : grid.bitSizes) {
                for (const ValueStage stage : grid.stages) {
                    SimJob job = base;
                    job.asbr = true;
                    job.bitEntries = bits;
                    job.updateStage = stage;
                    job.parityProtected = grid.parityProtected;
                    job.staticFolds = grid.staticFolds;
                    job.predictorAware = grid.predictorAware;
                    jobs.push_back(job);
                }
            }
        }
    }
    return jobs;
}

}  // namespace asbr::driver
