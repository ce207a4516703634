// Ablation B (paper Sections 6-7) — BIT capacity sweep.
//
// "Since only the most frequently executed branches within the important
// application loops are targeted, a small number of BIT entries would
// suffice."  Sweep 1..32 entries on the G.721 encoder and report the
// cycles / hardware-cost trade-off: benefit should saturate well before 32.
#include <cstdio>

#include "bench_util.hpp"
#include "util/stats.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("ablation_bit_size", options);

    // One baseline plus one ASBR job per capacity — the engine resolves the
    // shared workload/profile once and reuses it across every selection.
    const std::size_t sizes[] = {1, 2, 4, 8, 16, 32};
    std::vector<SimJob> jobs;
    jobs.push_back(
        baseJob(options, BenchId::kG721Encode, "bimodal", "ablation_bit_size"));
    for (const std::size_t entries : sizes) {
        SimJob job = baseJob(options, BenchId::kG721Encode, "bi512",
                             "ablation_bit_size");
        job.asbr = true;
        job.bitEntries = entries;
        jobs.push_back(job);
    }
    const std::vector<JobResult> results = engine.run(jobs);
    const JobResult& base = results[0];

    TextTable table("Ablation: BIT entries vs cycles (G.721 Encode, bi-512 aux)");
    table.setHeader({"BIT entries", "selected", "folds", "cycles",
                     "improvement vs bimodal", "ASBR storage bits"});

    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const JobResult& r = results[1 + i];
        sink.add(r);
        table.addRow({std::to_string(sizes[i]),
                      std::to_string(r.candidates.size()),
                      formatWithCommas(r.unitStats.folds),
                      formatWithCommas(r.stats.cycles),
                      formatPercent(improvement(base.stats.cycles, r.stats.cycles)),
                      formatWithCommas(r.unitStorageBits)});
    }
    printTable(options, table);
    sink.write();
    std::puts("Expected shape: improvement grows with capacity and saturates —");
    std::puts("a 16-entry BIT captures nearly all of the benefit (the paper's size).");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
