// Ablation C (paper Section 5.1) — compiler support.
//
// ASBR depends on the def-to-branch distance; the paper relied on
// (manual) instruction scheduling to widen it.  Compile each benchmark with
// and without mcc's branch-condition scheduling pass and compare how many
// dynamic branch executions are foldable at threshold 3 and what that does
// to ASBR's cycle count.
#include <cstdio>

#include "bench_util.hpp"
#include "util/stats.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("ablation_scheduling", options);

    TextTable table(
        "Ablation: condition-scheduling pass vs foldability and ASBR cycles");
    table.setHeader({"benchmark", "scheduling", "foldable execs@3", "folds",
                     "cycles (ASBR, bi-512)", "improvement vs bimodal"});

    // Per benchmark x scheduling flag: a bimodal baseline and the ASBR run.
    // The two scheduling variants are distinct workload keys, so the engine
    // loads and profiles each variant exactly once.
    const std::vector<BenchId> benches = benchList(options, kAllBenches);
    std::vector<SimJob> jobs;
    for (const BenchId id : benches) {
        for (const bool schedule : {false, true}) {
            SimJob base = baseJob(options, id, "bimodal", "ablation_scheduling");
            base.scheduled = schedule;
            jobs.push_back(base);
            SimJob asbrJob =
                baseJob(options, id, "bi512", "ablation_scheduling");
            asbrJob.scheduled = schedule;
            asbrJob.asbr = true;
            jobs.push_back(asbrJob);
        }
    }
    const std::vector<JobResult> results = engine.run(jobs);

    for (std::size_t i = 0; i < jobs.size(); i += 2) {
        const JobResult& base = results[i];
        const JobResult& r = results[i + 1];
        sink.add(r);

        // Dynamic branch executions whose def-to-branch distance qualifies at
        // threshold 3, from the cached functional profile.
        const ProgramProfile& profile = engine.workloadFor(jobs[i])->profile();
        std::uint64_t foldable = 0;
        for (const auto& [pc, bp] : profile.branches) foldable += bp.distGe3;

        table.addRow(
            {r.report.meta.benchmark, jobs[i].scheduled ? "on" : "off",
             formatWithCommas(foldable), formatWithCommas(r.unitStats.folds),
             formatWithCommas(r.stats.cycles),
             formatPercent(improvement(base.stats.cycles, r.stats.cycles))});
    }
    printTable(options, table);
    sink.write();
    std::puts("Expected shape: scheduling on => more foldable executions, more");
    std::puts("folds, fewer cycles (the compiler support of paper Section 5.1).");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
