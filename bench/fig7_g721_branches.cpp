// Figure 7 — Execution statistics for the branches selected for G.721.
//
// For the 16 branches the selector picks for the G.721 encoder (15 for the
// decoder), print the dynamic execution count and the per-site accuracy of
// each general-purpose predictor — the paper's evidence that the selected
// branches are frequent and that several of them defeat every predictor.
// The table logic is shared with Figures 9/10 (bench_util.cpp).
#include <cstdio>

#include "bench_util.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) try {
    const Options options = parseOptions(argc, argv);
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("fig7_g721_branches", options);
    reportSelectedBranches(engine, options, BenchId::kG721Encode, "7 (encode)",
                           &sink);
    reportSelectedBranches(engine, options, BenchId::kG721Decode, "7 (decode)",
                           &sink);
    sink.write();
    std::puts("Paper reference (Figure 7): 16 branches for the encoder (15 for the");
    std::puts("decoder), exec counts 23k..1.76M, several sites where even gshare is");
    std::puts("stuck near 0.5-0.6 while others are >0.95.");
    return 0;
} catch (const std::exception& e) {
    return reportFailure(argv[0], e);
}
