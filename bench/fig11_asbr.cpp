// Figure 11 — Application-specific branch resolution results.
//
// For each benchmark: profile, select the paper's number of BIT entries,
// fold those branches with the ASBR unit, and run with each auxiliary
// predictor the paper evaluates for the remaining branches:
//   not taken  — no auxiliary predictor; improvement vs the not-taken
//                baseline of Figure 6
//   bi-512     — 512-counter bimodal with a quarter-size (512-entry) BTB;
//                improvement vs the full bimodal-2048 baseline
//   bi-256     — 256 counters, same quarter-size BTB, same baseline
//
// Shape to check: every row improves on its baseline; ADPCM improves more
// than G.721; bi-512 and bi-256 rows are nearly identical (the BIT removed
// the aliasing-heavy branches), all at a fraction of the baseline
// predictor's storage.
#include <cstdio>

#include "bench_util.hpp"
#include "util/stats.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("fig11_asbr", options);

    // Per benchmark: the two Figure 6 baselines this figure compares
    // against, then the three ASBR + auxiliary-predictor runs.
    const char* auxes[] = {"not-taken", "bi512", "bi256"};
    const std::vector<BenchId> benches = benchList(options, kAllBenches);
    std::vector<SimJob> jobs;
    for (const BenchId id : benches) {
        jobs.push_back(baseJob(options, id, "not-taken", "fig6"));
        jobs.push_back(baseJob(options, id, "bimodal", "fig6"));
        for (const char* aux : auxes) {
            SimJob job = baseJob(options, id, aux, "fig11");
            job.asbr = true;
            jobs.push_back(job);
        }
    }
    const std::vector<JobResult> results = engine.run(jobs);

    TextTable table("Figure 11: ASBR cycles and improvement per auxiliary predictor");
    table.setHeader({"benchmark", "aux predictor", "cycles", "improvement",
                     "folded", "fold rate", "pipeline activity",
                     "storage bits vs baseline"});

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const JobResult* group = &results[b * 5];
        const JobResult& notTakenBase = group[0];
        const JobResult& bimodalBase = group[1];
        for (std::size_t a = 0; a < 3; ++a) {
            const JobResult& r = group[2 + a];
            sink.add(r);
            // not-taken improves vs the not-taken baseline; the bi-* aux
            // predictors vs the full bimodal-2048 baseline.
            const JobResult& baseline = a == 0 ? notTakenBase : bimodalBase;
            // Power proxy (paper Section 1): instructions entering the
            // pipeline, including wrong-path fetches, relative to baseline.
            const double activity = static_cast<double>(r.stats.fetched) /
                                    static_cast<double>(baseline.stats.fetched);
            const std::uint64_t storage =
                r.predictorStorageBits + r.unitStorageBits;
            char storageText[64];
            std::snprintf(storageText, sizeof storageText, "%llu / %llu",
                          static_cast<unsigned long long>(storage),
                          static_cast<unsigned long long>(
                              bimodalBase.predictorStorageBits));
            table.addRow(
                {r.report.meta.benchmark, r.report.meta.predictor,
                 formatWithCommas(r.stats.cycles),
                 formatPercent(
                     improvement(baseline.stats.cycles, r.stats.cycles)),
                 formatWithCommas(r.stats.foldedBranches),
                 formatPercent(r.stats.foldRate()), formatPercent(activity),
                 storageText});
        }
    }
    printTable(options, table);
    sink.write();

    std::puts("Paper reference (Figure 11):");
    std::puts("  ADPCM Enc: not-taken 10.3M (+16%) | bi-512 7.28M (+22%) | bi-256 7.28M (+22%)");
    std::puts("  ADPCM Dec: not-taken  9.4M (+13%) | bi-512 6.32M (+20%) | bi-256 6.32M (+20%)");
    std::puts("  G.721 Enc: not-taken 76.1M (+6%)  | bi-512 57.6M (+7%)  | bi-256 58.0M (+7%)");
    std::puts("  G.721 Dec: not-taken 80.4M (+5%)  | bi-512 58.9M (+6%)  | bi-256 59.2M (+6%)");
    std::puts("(bi-* improvements are vs the bimodal-2048 baseline; not-taken vs the");
    std::puts(" not-taken baseline.)");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
