// Extension (not a paper table): full predictor shoot-out across all six
// workloads — the paper's three baselines plus McFarling's tournament
// predictor [cited as ref 3], always-taken, TAGE, the perceptron, and
// ASBR + bi-512 — laid out as cost (storage bits) vs performance (cycles).
// Answers the natural follow-up question: does a stronger general-purpose
// predictor close the gap ASBR closes?  (It narrows it but costs more
// storage than the ASBR unit, which does better with ~4x less.)
#include <cstdio>
#include <iterator>

#include "bp/registry.hpp"
#include "bench_util.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("ext_predictors", options);

    TextTable table("Extension: predictor shoot-out (cycles; lower is better)");
    table.setHeader({"benchmark", "not taken", "always taken", "bimodal-2048",
                     "gshare-2048", "tournament", "tage", "perceptron",
                     "ASBR + bi-512", "ASBR folds"});

    // Per benchmark: the ASBR run first (matching the historical report
    // order), then the reference predictors.  This selection is the one
    // consumer that does NOT use a baseline accuracy reference — the
    // selector falls back to pure profile-driven ranking.
    const char* baselines[] = {"not-taken",  "taken", "bimodal", "gshare",
                               "tournament", "tage",  "perceptron"};
    constexpr std::size_t kBaselines = std::size(baselines);
    constexpr std::size_t kGroup = kBaselines + 1;
    const std::vector<BenchId> benches = benchList(options, kAllBenchesExtended);
    std::vector<SimJob> jobs;
    for (const BenchId id : benches) {
        SimJob asbrJob = baseJob(options, id, "bi512", "ext_predictors");
        asbrJob.asbr = true;
        asbrJob.accuracyRef = false;
        jobs.push_back(asbrJob);
        for (const char* predictor : baselines)
            jobs.push_back(baseJob(options, id, predictor, "ext_predictors"));
    }
    const std::vector<JobResult> results = engine.run(jobs);

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const JobResult* group = &results[b * kGroup];
        for (std::size_t j = 0; j < kGroup; ++j) sink.add(group[j]);
        const JobResult& asbrRun = group[0];
        std::vector<std::string> row{benchName(benches[b])};
        for (std::size_t j = 1; j < kGroup; ++j)
            row.push_back(formatWithCommas(group[j].stats.cycles));
        row.push_back(formatWithCommas(asbrRun.stats.cycles));
        row.push_back(formatWithCommas(asbrRun.unitStats.folds));
        table.addRow(row);
    }
    printTable(options, table);
    sink.write();

    // Every storage figure comes from the registry — the same accounting the
    // sim reports publish as bp.storage_bits — so this line can never drift
    // from the predictors it benchmarks.
    const PredictorRegistry& registry = PredictorRegistry::instance();
    std::printf("storage bits:");
    const char* separator = " ";
    for (const char* token :
         {"bimodal", "gshare", "tournament", "tage", "perceptron"}) {
        std::printf("%s%s %llu", separator, token,
                    static_cast<unsigned long long>(registry.storageBits(token)));
        separator = " | ";
    }
    std::printf(" | ASBR+bi-512 %llu\n",
                static_cast<unsigned long long>(registry.storageBits("bi512") +
                                                AsbrUnit().storageBits()));
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
