// Figures 9 and 10 — Execution statistics for the branches selected for the
// ADPCM encode (Figure 9, 4 branches) and decode (Figure 10, 3 branches)
// benchmarks: execution counts and per-predictor accuracy for each selected
// site.  The table logic is shared with Figure 7 (bench_util.cpp).
#include <cstdio>

#include "bench_util.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("fig9_10_adpcm_branches", options);
    reportSelectedBranches(engine, options, BenchId::kAdpcmEncode, "9", &sink);
    reportSelectedBranches(engine, options, BenchId::kAdpcmDecode, "10", &sink);
    sink.write();
    std::puts("Paper reference: 4 encoder branches / 3 decoder branches, each");
    std::puts("executed once per sample (147,520 in the paper), with predictor");
    std::puts("accuracies in the 0.3-0.9 band — hard-to-predict data-dependent");
    std::puts("branches inside the tight quantizer loop.");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
