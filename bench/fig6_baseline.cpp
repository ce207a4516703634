// Figure 6 — Branch predictability of the benchmarks.
//
// Baseline architecture (no ASBR): total cycles, CPI and branch-resolution
// accuracy for each benchmark under the three general-purpose predictors the
// paper evaluates: always-not-taken, bimodal (2048 counters + 2048-entry
// BTB) and gshare (11-bit history, 2048 counters, 2048-entry BTB).
//
// Absolute numbers differ from the paper (synthetic input, our pipeline
// model); the shape to check is: not-taken is far worse than both dynamic
// predictors, accuracy ordering not-taken << bimodal ~ gshare, and G.721 is
// more predictable (~90%) than ADPCM (~70-80%).
#include <cstdio>

#include "bench_util.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("fig6_baseline", options);

    const std::vector<BenchId> benches = benchList(options, kAllBenches);
    const char* predictors[] = {"not-taken", "bimodal", "gshare"};
    std::vector<SimJob> jobs;
    for (const BenchId id : benches)
        for (const char* predictor : predictors)
            jobs.push_back(baseJob(options, id, predictor, "fig6"));
    const std::vector<JobResult> results = engine.run(jobs);

    TextTable table("Figure 6: baseline cycles / CPI / accuracy per predictor");
    table.setHeader({"benchmark", "predictor", "cycles", "CPI", "acc",
                     "mispredicts", "branch fraction"});
    for (const JobResult& r : results) {
        sink.add(r);
        table.addRow({r.report.meta.benchmark, r.report.meta.predictor,
                      formatWithCommas(r.stats.cycles),
                      formatFixed(r.stats.cpi(), 2),
                      formatPercent(r.stats.predictorAccuracy()),
                      formatWithCommas(r.stats.mispredicts),
                      formatPercent(r.stats.branchFraction())});
    }
    printTable(options, table);
    sink.write();

    std::puts("Paper reference (Figure 6, authors' inputs/testbed):");
    std::puts("  ADPCM Enc : not-taken 12.2M cyc CPI 1.85 32% | bimodal 9.4M 1.41 69% | gshare 8.5M 1.28 82%");
    std::puts("  ADPCM Dec : not-taken 10.8M cyc CPI 1.96 31% | bimodal 7.9M 1.44 71% | gshare 7.3M 1.32 81%");
    std::puts("  G.721 Enc : not-taken 80.7M cyc CPI 1.73 53% | bimodal 62.1M 1.33 91% | gshare 62.3M 1.33 91%");
    std::puts("  G.721 Dec : not-taken 80.4M cyc CPI 1.83 53% | bimodal 62.8M 1.43 91% | gshare 63.1M 1.44 90%");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
