// Parameter-grid expansion for asbr-sweep: cross-product a set of workload,
// predictor, BIT-size and update-stage axes into a flat SimJob batch the
// engine runs in one call.  Expansion order is fixed (workload-major, then
// predictor, then BIT size, then stage) so the job list — and therefore the
// sweep report — is independent of how the batch is later scheduled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/job.hpp"
#include "sim/fetch_customizer.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

struct SweepGrid {
    std::vector<BenchId> workloads;          ///< empty = all six benchmarks
    std::vector<std::string> predictors{"bimodal"};
    std::vector<std::size_t> bitSizes{0};    ///< 0 = the paper's count
    std::vector<ValueStage> stages{ValueStage::kMemEnd};
    bool parityProtected = false;
    bool staticFolds = false;
    /// Predictor-aware fold selection on every ASBR point: fold only the
    /// branches each point's own predictor demonstrably loses.
    bool predictorAware = false;
    /// Also run each workload x predictor point without ASBR, before its
    /// ASBR points, for side-by-side baselines in one report.
    bool includeBaseline = false;
};

/// Expand the grid into jobs.  Samples/seed come from the shared options
/// (per-workload sample counts via samplesFor), and --sample makes every
/// job a sampled run with that window geometry, so the cells of one
/// workload share its fast-forward log; every job is tagged
/// figure = "sweep".
[[nodiscard]] std::vector<SimJob> expandSweep(const SweepGrid& grid,
                                              const CliOptions& options);

}  // namespace asbr::driver
