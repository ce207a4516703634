// asbr_tool — command-line driver for the whole toolchain.
//
// Compile (or assemble) a program, optionally profile it, select branches,
// enable ASBR, and run it cycle-accurately:
//
//   asbr_tool prog.c                        # compile C, run with bimodal-2048
//   asbr_tool prog.s --predictor=gshare     # assemble, run with gshare
//   asbr_tool prog.c --asbr                 # profile + select + fold
//   asbr_tool prog.c --asbr --stage=commit --bit=8 --predictor=bi512
//   asbr_tool prog.c --disasm               # dump the linked program
//
// Inputs ending in .s/.asm are assembled; anything else is compiled as mcc C.
#include <cstdio>
#include <string>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "bp/predictor.hpp"
#include "driver/cli.hpp"
#include "driver/names.hpp"
#include "isa/disasm.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/pipeline.hpp"

namespace {

using namespace asbr;

[[noreturn]] void usage() {
    std::puts(
        "usage: asbr_tool <file.c|file.s> [options]\n"
        "  --predictor=TOKEN      registry token, e.g. bimodal, bi512, gshare,\n"
        "                         tage:h8-16-32-64, perceptron:n256-h12\n"
        "                         ('asbr-stats predictors' lists all; default bimodal)\n"
        "  --asbr                 profile, select and fold branches\n"
        "  --bit=N                BIT entries for --asbr (default 16)\n"
        "  --stage=ex|mem|commit  BDT update point (default mem)\n"
        "  --no-schedule          disable the condition-scheduling pass\n"
        "  --disasm               print the linked program and exit\n"
        "  --verbose              per-branch statistics after the run");
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string path = argv[1];

    std::string predictorName = "bimodal";
    bool useAsbr = false;
    bool schedule = true;
    bool disasm = false;
    bool verbose = false;
    std::size_t bitEntries = 16;
    ValueStage stage = ValueStage::kMemEnd;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (const auto v = driver::valueArg(arg, "--predictor=")) {
            predictorName = *v;
        } else if (driver::numArg(arg, "--bit=", bitEntries, error)) {
            if (!error.empty()) driver::cliFail("asbr_tool", error);
        } else if (arg == "--asbr") useAsbr = true;
        else if (arg == "--stage=ex") stage = ValueStage::kExEnd;
        else if (arg == "--stage=mem") stage = ValueStage::kMemEnd;
        else if (arg == "--stage=commit") stage = ValueStage::kCommit;
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--disasm") disasm = true;
        else if (arg == "--verbose") verbose = true;
        else usage();
    }

    Program program;
    try {
        program = driver::loadProgram(path, schedule);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr_tool: %s\n", e.what());
        return 1;
    }

    if (disasm) {
        for (std::size_t i = 0; i < program.code.size(); ++i) {
            const std::uint32_t pc =
                program.textBase + static_cast<std::uint32_t>(i) * kInstrBytes;
            std::printf("%s\n", disassembleAt(program.code[i], pc).c_str());
        }
        return 0;
    }

    std::string error;
    const auto predictor = driver::makePredictorByToken(predictorName, &error);
    if (!predictor) driver::cliFail("asbr_tool", error);
    AsbrUnit unit({stage, std::max<std::size_t>(bitEntries, 1), 1});
    AsbrUnit* customizer = nullptr;

    if (useAsbr) {
        Memory profMem;
        profMem.loadProgram(program);
        const ProgramProfile profile = profileProgram(program, profMem);
        SelectionConfig selCfg;
        selCfg.bitCapacity = bitEntries;
        selCfg.threshold = driver::thresholdFor(stage);
        const auto candidates = selectFoldableBranches(program, profile, {},
                                                       selCfg);
        std::printf("ASBR: %zu of %zu branch sites selected\n",
                    candidates.size(), profile.branches.size());
        unit.loadBank(0, extractBranchInfos(program, candidatePcs(candidates)));
        customizer = &unit;
    }

    Memory memory;
    memory.loadProgram(program);
    PipelineSim sim(program, memory, *predictor, PipelineConfig{}, customizer);
    PipelineResult result;
    try {
        result = sim.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "simulation failed: %s\n", e.what());
        return 1;
    }

    if (!result.output.empty())
        std::printf("--- program output ---\n%s\n----------------------\n",
                    result.output.c_str());
    std::printf("exit code   : %d\n", result.exitCode);
    std::printf("cycles      : %llu   CPI %.3f\n",
                static_cast<unsigned long long>(result.stats.cycles),
                result.stats.cpi());
    std::printf("committed   : %llu   fetched %llu\n",
                static_cast<unsigned long long>(result.stats.committed),
                static_cast<unsigned long long>(result.stats.fetched));
    std::printf("branches    : %llu   predictor accuracy %.1f%%   folded %llu\n",
                static_cast<unsigned long long>(result.stats.condBranches),
                100.0 * result.stats.predictorAccuracy(),
                static_cast<unsigned long long>(result.stats.foldedBranches));
    std::printf("stalls      : load-use %llu, redirect %llu, i$ %llu, d$ %llu, "
                "mul/div %llu\n",
                static_cast<unsigned long long>(result.stats.loadUseStalls),
                static_cast<unsigned long long>(result.stats.redirectStallCycles),
                static_cast<unsigned long long>(result.stats.icacheStallCycles),
                static_cast<unsigned long long>(result.stats.dcacheStallCycles),
                static_cast<unsigned long long>(result.stats.mulDivStallCycles));

    if (verbose) {
        std::puts("per-branch sites (execs >= 10):");
        for (const auto& [pc, site] : result.stats.branchSites) {
            if (site.execs < 10) continue;
            std::printf("  0x%05x execs %-8llu taken %.2f acc %.2f folded %llu"
                        "  (line %d)\n",
                        pc, static_cast<unsigned long long>(site.execs),
                        site.takenRate(), site.accuracy(),
                        static_cast<unsigned long long>(site.folded),
                        program.sourceLine(pc));
        }
    }
    return 0;
}
