// asbr-verify — static fold-legality linter for assembled/compiled programs.
//
// Builds the CFG, the abstract-interpretation value analysis and the
// reaching-producer dataflow over the linked program, verifies the fold
// legality of either the profiler-driven selection (default) or every
// conditional branch (--all), checks the BIT geometry for conflicts and the
// extracted bank for BTA/BTI/BFI consistency, and exits nonzero when any
// verified branch is Illegal (or any conflict / inconsistency is found) —
// suitable as a CI gate.
//
//   asbr-verify prog.c                      # verify the default selection
//   asbr-verify prog.s --all                # lint every conditional branch
//   asbr-verify prog.c --threshold=2 --require-safe
//   asbr-verify prog.s --all --no-profile   # purely static verdicts
//   asbr-verify prog.s --strict             # value-analysis lints are fatal
//   asbr-verify prog.s --dump-cfg=cfg.dot   # Graphviz render of the analysis
//   asbr-verify analyze --bench=adpcm-enc --out=report.json
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <thread>

#include "analysis/dot.hpp"
#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "cc/compile.hpp"
#include "cc/schedule.hpp"
#include "driver/artifacts.hpp"
#include "driver/names.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "report/analysis_report.hpp"
#include "report/ipa_report.hpp"
#include "report/wcet_report.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace asbr;

[[noreturn]] void usage(int code) {
    std::fputs(
        "usage: asbr-verify <file.c|file.s> [options]\n"
        "       asbr-verify analyze <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify wcet <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify ipa <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify callgraph <file.c|file.s> | --bench=B [options]\n"
        "  --threshold=2|3|4   fold-distance threshold (default 3)\n"
        "  --bit=N             BIT ways per set (default 16)\n"
        "  --sets=N            BIT sets (default 1 = fully associative)\n"
        "  --all               verify every conditional branch, not just the\n"
        "                      profiler-driven selection\n"
        "  --no-profile        skip the dynamic profile (purely static run;\n"
        "                      implies --all)\n"
        "  --require-safe      selection drops Illegal candidates\n"
        "  --no-schedule       disable the condition-scheduling pass\n"
        "  --dump-cfg=FILE     write the analyzed CFG as a Graphviz digraph\n"
        "  --strict            unreachable-block / dead-branch-arm lints are\n"
        "                      errors (nonzero exit)\n"
        "  --quiet             summary only, no per-branch table\n"
        "analyze options:\n"
        "  --bench=adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec\n"
        "  --out=FILE          asbr.analysis_report destination (default -)\n"
        "wcet options:\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          asbr.wcet_report destination (default -)\n"
        "  --seed=N            workload input seed (default 2001)\n"
        "  --samples=N         workload input samples (0 = capacity)\n"
        "  --threads=N         run the two measured pipeline runs in\n"
        "                      parallel (the report is byte-identical at any\n"
        "                      N; default 1)\n"
        "ipa options:\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          asbr.ipa_report destination (default -)\n"
        "callgraph options:\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          Graphviz digraph destination (default -)\n"
        "durable sweeps (--journal=DIR --resume --job-timeout=MS\n"
        "--max-attempts=N) live in asbr-sweep and asbr-faults campaign — see\n"
        "docs/robustness.md.\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

std::size_t parseCount(const std::string& arg, const std::string& value) {
    try {
        std::size_t end = 0;
        const unsigned long n = std::stoul(value, &end);
        if (end == value.size() && !value.empty()) return n;
    } catch (const std::exception&) {
    }
    std::fprintf(stderr, "asbr-verify: '%s' needs a numeric value\n",
                 arg.c_str());
    std::exit(2);
}

std::optional<BenchId> benchFromName(const std::string& s) {
    if (s == "adpcm-enc") return BenchId::kAdpcmEncode;
    if (s == "adpcm-dec") return BenchId::kAdpcmDecode;
    if (s == "g721-enc") return BenchId::kG721Encode;
    if (s == "g721-dec") return BenchId::kG721Decode;
    if (s == "g711-enc") return BenchId::kG711Encode;
    if (s == "g711-dec") return BenchId::kG711Decode;
    return std::nullopt;
}

/// Compile/assemble `path` (.s/.asm = assembly, anything else = mcc C).
/// Exits with a diagnostic on unreadable files or front-end errors.
Program loadProgram(const std::string& path, bool schedule) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        const bool isAsm = path.ends_with(".s") || path.ends_with(".asm");
        if (isAsm) {
            Program program = assemble(buffer.str());
            if (schedule) cc::scheduleConditionChains(program);
            return program;
        }
        cc::CompileOptions options;
        options.scheduleConditions = schedule;
        return cc::compile(buffer.str(), options).program;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    }
}

/// --dump-cfg=FILE: Graphviz render of the analyzed supergraph.  A bad path
/// is a hard error — CI must not silently lose the artifact.
void dumpCfgTo(const std::string& path,
               const analysis::FoldLegalityVerifier& verifier,
               const analysis::VerifyConfig& config) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr,
                     "asbr-verify: cannot open '%s' for writing the CFG dump\n",
                     path.c_str());
        std::exit(1);
    }
    analysis::dumpCfgDot(out, verifier, config);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "asbr-verify: write to '%s' failed\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(stderr, "wrote CFG dump to %s\n", path.c_str());
}

/// Self-check a report against its schema's field table before anything
/// touches disk, then write it to `outPath` ("-" = stdout).  Returns false,
/// after saying why, when the document is invalid or cannot be written.
bool writeReport(const char* sub, const JsonValue& doc, const SchemaSpec& spec,
                 const std::string& outPath) {
    const ReportValidation validation = validate(doc, spec);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "schema error: %s\n", error.c_str());
    if (!validation.ok()) return false;
    const std::string text = doc.dump(2) + "\n";
    if (outPath == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "asbr-verify %s: cannot open '%s' for writing\n",
                     sub, outPath.c_str());
        return false;
    }
    out << text;
    std::fprintf(stderr, "wrote %s to %s\n", spec.id.c_str(), outPath.c_str());
    return true;
}

/// Print the value-analysis lints; returns the number of *error* lints
/// (see isErrorLint — refinement wins and the SSA diagnostics are
/// informational).  Lints are diagnostics, so they go to stderr —
/// `analyze --out=-` owns stdout for the JSON document.
std::size_t printLints(const analysis::FoldLegalityVerifier& verifier,
                       const analysis::VerifyConfig& config, bool quiet) {
    std::size_t errors = 0;
    for (const analysis::StaticLint& lint : verifier.lints(config)) {
        if (analysis::isErrorLint(lint.kind)) ++errors;
        if (!quiet)
            std::fprintf(stderr, "lint: %s\n",
                         analysis::formatLint(lint).c_str());
    }
    return errors;
}

int cmdAnalyze(int argc, char** argv) {
    std::string path;
    std::string benchToken;
    std::string outPath = "-";
    std::string dumpCfgPath;
    std::uint32_t threshold = 3;
    bool schedule = true;
    bool strict = false;
    bool quiet = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--bench=", 0) == 0)
            benchToken = arg.substr(8);
        else if (arg.rfind("--out=", 0) == 0)
            outPath = arg.substr(6);
        else if (arg.rfind("--threshold=", 0) == 0)
            threshold =
                static_cast<std::uint32_t>(parseCount(arg, arg.substr(12)));
        else if (arg.rfind("--dump-cfg=", 0) == 0)
            dumpCfgPath = arg.substr(11);
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--strict") strict = true;
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--help" || arg == "-h") usage(0);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asbr-verify analyze: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "asbr-verify analyze: extra argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (path.empty() == benchToken.empty()) {
        std::fprintf(stderr,
                     "asbr-verify analyze: need exactly one of <file> or "
                     "--bench=B\n");
        return 2;
    }

    Program program;
    AnalysisReportMeta meta;
    meta.threshold = threshold;
    meta.scheduled = schedule;
    if (!benchToken.empty()) {
        const auto id = benchFromName(benchToken);
        if (!id) {
            std::fprintf(stderr, "asbr-verify analyze: unknown bench '%s'\n",
                         benchToken.c_str());
            return 2;
        }
        program = buildBench(*id, schedule);
        meta.benchmark = benchToken;
    } else {
        program = loadProgram(path, schedule);
        const std::size_t slash = path.find_last_of('/');
        meta.benchmark = slash == std::string::npos ? path
                                                    : path.substr(slash + 1);
    }

    try {
        analysis::VerifyConfig config;
        config.threshold = threshold;
        const analysis::FoldLegalityVerifier verifier(program);

        if (!writeReport("analyze", analysisReportJson(meta, verifier, config),
                         kAnalysisReportSpec, outPath))
            return 1;

        if (!dumpCfgPath.empty()) dumpCfgTo(dumpCfgPath, verifier, config);
        const std::size_t errorLints = printLints(verifier, config, quiet);
        if (!verifier.values().converged) {
            std::fprintf(stderr,
                         "asbr-verify analyze: fixpoint iteration budget "
                         "exhausted (verdicts degraded to Dynamic)\n");
            return 1;
        }
        return strict && errorLints != 0 ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}

/// `asbr-verify wcet`: static cycle bound vs measured pipeline cycles.
///
/// Computes the structured-IPET WCET twice — once with no folds (baseline)
/// and once with the cost-aware static-cost selection folded — runs the
/// pipeline under the same two configurations, and emits the schema-
/// versioned asbr.wcet_report.  Exits nonzero when either bound is missing
/// or below its measured run (an unsound cost model is a bug, not a
/// warning).
int cmdWcet(int argc, char** argv) {
    std::string path;
    std::string benchToken;
    std::string outPath = "-";
    std::uint32_t threshold = 3;
    std::uint64_t seed = 2001;
    std::size_t samples = 0;
    std::size_t threads = 1;
    bool schedule = true;
    bool strict = false;
    bool quiet = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--bench=", 0) == 0)
            benchToken = arg.substr(8);
        else if (arg.rfind("--out=", 0) == 0)
            outPath = arg.substr(6);
        else if (arg.rfind("--threshold=", 0) == 0)
            threshold =
                static_cast<std::uint32_t>(parseCount(arg, arg.substr(12)));
        else if (arg.rfind("--seed=", 0) == 0)
            seed = parseCount(arg, arg.substr(7));
        else if (arg.rfind("--samples=", 0) == 0)
            samples = parseCount(arg, arg.substr(10));
        else if (arg.rfind("--threads=", 0) == 0)
            threads = parseCount(arg, arg.substr(10));
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--strict") strict = true;
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--help" || arg == "-h") usage(0);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asbr-verify wcet: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "asbr-verify wcet: extra argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (path.empty() == benchToken.empty()) {
        std::fprintf(stderr,
                     "asbr-verify wcet: need exactly one of <file> or "
                     "--bench=B\n");
        return 2;
    }
    if (threshold < 2 || threshold > 4) {
        std::fprintf(stderr, "asbr-verify wcet: threshold must be 2, 3 or 4\n");
        return 2;
    }

    Program program;
    std::optional<driver::Prepared> prepared;
    WcetReportMeta meta;
    meta.threshold = threshold;
    meta.scheduled = schedule;
    meta.seed = seed;
    if (!benchToken.empty()) {
        const auto id = benchFromName(benchToken);
        if (!id) {
            std::fprintf(stderr, "asbr-verify wcet: unknown bench '%s'\n",
                         benchToken.c_str());
            return 2;
        }
        const std::size_t resolved =
            samples == 0 ? benchMaxSamples(*id)
                         : std::min(samples, benchMaxSamples(*id));
        prepared = driver::prepare(*id, schedule, seed, resolved);
        program = prepared->program;
        meta.benchmark = benchToken;
        meta.samples = resolved;
    } else {
        program = loadProgram(path, schedule);
        const std::size_t slash = path.find_last_of('/');
        meta.benchmark = slash == std::string::npos ? path
                                                    : path.substr(slash + 1);
        meta.samples = 0;
    }

    try {
        analysis::VerifyConfig config;
        config.threshold = threshold;
        const analysis::FoldLegalityVerifier verifier(program);

        const PipelineConfig pipeConfig;
        analysis::timing::WcetEngine engine(
            verifier.cfg(), verifier.values(),
            analysis::timing::TimingCostModel::fromPipeline(pipeConfig),
            &verifier.ipa().resolution.map);

        // Loops neither annotation nor inference could bound fall back to a
        // measured per-entry maximum (flagged `profile` in the report).
        {
            Memory observeMemory;
            if (prepared) {
                observeMemory = driver::makeMemory(*prepared);
            } else {
                observeMemory.loadProgram(program);
            }
            engine.applyObservedBounds(analysis::timing::observeLoopBounds(
                program, observeMemory, engine.loops()));
        }

        const analysis::timing::WcetResult baseline = engine.compute({});

        // Cost-aware selection from the baseline ranking; the fold set of
        // the folded bound is exactly what the measured folded run loads.
        SelectionConfig selCfg;
        selCfg.threshold = threshold;
        const FoldSelection selection =
            selectBranchesByStaticCost(program, baseline.branches, selCfg);
        std::set<std::uint32_t> foldedPcs;
        for (const StaticFoldCandidate& s : selection.statics)
            foldedPcs.insert(s.pc);
        for (const Candidate& c : selection.dynamic) foldedPcs.insert(c.pc);

        const analysis::timing::WcetResult folded = engine.compute(foldedPcs);

        // Publish the run's counters through the metric registry — the same
        // duplicate-rejecting namespace `asbr-stats counters` catalogues.
        MetricRegistry metrics;
        analysis::timing::WcetMetrics wcetMetrics;
        wcetMetrics.countLoops(engine.loops());
        wcetMetrics.boundBaselineCycles = baseline.bounded ? baseline.cycles : 0;
        wcetMetrics.boundFoldedCycles = folded.bounded ? folded.cycles : 0;
        wcetMetrics.publish(metrics);
        StaticCostSelectionMetrics selectionMetrics;
        selectionMetrics.candidates = baseline.branches.size();
        selectionMetrics.countSelection(selection);
        selectionMetrics.publish(metrics);

        const auto makeUnit = [&] {
            AsbrConfig unitConfig;
            unitConfig.updateStage = threshold == 2   ? ValueStage::kExEnd
                                     : threshold == 3 ? ValueStage::kMemEnd
                                                      : ValueStage::kCommit;
            auto unit = std::make_unique<AsbrUnit>(unitConfig);
            std::vector<std::uint32_t> pcs;
            for (const Candidate& c : selection.dynamic) pcs.push_back(c.pc);
            unit->loadBank(0, extractBranchInfos(program, pcs));
            std::vector<StaticFoldEntry> statics;
            for (const StaticFoldCandidate& s : selection.statics)
                statics.push_back(extractStaticFold(program, s.pc, s.taken));
            unit->loadStaticFolds(std::move(statics),
                                  selection.bitSlotsReclaimed);
            return unit;
        };

        // The two measured runs are independent; --threads=2 overlaps them.
        // Either way each run builds its own memory/predictor/unit, so the
        // cycle counts (and therefore the report) never depend on N.
        const auto measure = [&](AsbrUnit* unit) -> std::uint64_t {
            const auto predictor = driver::makePredictorByToken("bimodal");
            if (prepared)
                return driver::runPipeline(*prepared, *predictor, unit,
                                           pipeConfig)
                    .stats.cycles;
            Memory memory;
            memory.loadProgram(program);
            predictor->reset();
            PipelineSim sim(program, memory, *predictor, pipeConfig, unit);
            const PipelineResult result = sim.run();
            ASBR_ENSURE(result.exited && result.exitCode == 0,
                        "program did not exit cleanly");
            return result.stats.cycles;
        };
        std::uint64_t measuredBaseline = 0;
        std::uint64_t measuredFolded = 0;
        if (threads > 1) {
            std::thread baselineThread(
                [&] { measuredBaseline = measure(nullptr); });
            const auto unit = makeUnit();
            measuredFolded = measure(unit.get());
            baselineThread.join();
        } else {
            measuredBaseline = measure(nullptr);
            const auto unit = makeUnit();
            measuredFolded = measure(unit.get());
        }

        if (!writeReport("wcet",
                         wcetReportJson(meta, engine, baseline, folded,
                                        foldedPcs, measuredBaseline,
                                        measuredFolded),
                         kWcetReportSpec, outPath))
            return 1;

        std::size_t unbounded = 0;
        for (const auto& loop : engine.loops())
            if (!loop.bound.bounded()) ++unbounded;
        if (!quiet)
            std::fprintf(stderr,
                         "asbr-verify wcet: baseline bound %llu (measured "
                         "%llu), folded bound %llu (measured %llu), %zu "
                         "loops (%zu unbounded), %zu branches folded\n",
                         static_cast<unsigned long long>(baseline.cycles),
                         static_cast<unsigned long long>(measuredBaseline),
                         static_cast<unsigned long long>(folded.cycles),
                         static_cast<unsigned long long>(measuredFolded),
                         engine.loops().size(), unbounded, foldedPcs.size());
        if (!quiet)
            for (const auto& [name, counter] : metrics.counters())
                std::fprintf(stderr, "  %s = %llu\n", name.c_str(),
                             static_cast<unsigned long long>(counter.value()));

        const std::size_t errorLints = printLints(verifier, config, quiet);

        int exitCode = 0;
        if (!baseline.bounded) {
            std::fprintf(stderr, "asbr-verify wcet: no baseline bound: %s\n",
                         baseline.reason.c_str());
            exitCode = 1;
        } else if (baseline.cycles < measuredBaseline) {
            std::fprintf(stderr,
                         "asbr-verify wcet: UNSOUND baseline bound (%llu < "
                         "measured %llu)\n",
                         static_cast<unsigned long long>(baseline.cycles),
                         static_cast<unsigned long long>(measuredBaseline));
            exitCode = 1;
        }
        if (!folded.bounded) {
            std::fprintf(stderr, "asbr-verify wcet: no folded bound: %s\n",
                         folded.reason.c_str());
            exitCode = 1;
        } else if (folded.cycles < measuredFolded) {
            std::fprintf(stderr,
                         "asbr-verify wcet: UNSOUND folded bound (%llu < "
                         "measured %llu)\n",
                         static_cast<unsigned long long>(folded.cycles),
                         static_cast<unsigned long long>(measuredFolded));
            exitCode = 1;
        }
        if (strict && errorLints != 0) {
            std::fprintf(stderr,
                         "asbr-verify wcet: %zu lint error(s) under "
                         "--strict\n",
                         errorLints);
            exitCode = 1;
        }
        return exitCode;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}

/// Shared <file>|--bench loader for the ipa/callgraph subcommands: resolves
/// the program and a display name, or exits via usage diagnostics.
Program loadForSubcommand(const char* sub, const std::string& path,
                          const std::string& benchToken, bool schedule,
                          std::string& displayName) {
    if (path.empty() == benchToken.empty()) {
        std::fprintf(stderr,
                     "asbr-verify %s: need exactly one of <file> or "
                     "--bench=B\n",
                     sub);
        std::exit(2);
    }
    if (!benchToken.empty()) {
        const auto id = benchFromName(benchToken);
        if (!id) {
            std::fprintf(stderr, "asbr-verify %s: unknown bench '%s'\n", sub,
                         benchToken.c_str());
            std::exit(2);
        }
        displayName = benchToken;
        return buildBench(*id, schedule);
    }
    const std::size_t slash = path.find_last_of('/');
    displayName = slash == std::string::npos ? path : path.substr(slash + 1);
    return loadProgram(path, schedule);
}

/// `asbr-verify ipa`: emit the schema-versioned asbr.ipa_report — SSA/SCCP
/// pipeline statistics, indirect-jump resolution, call-graph summaries and
/// the resolution-aware static WCET.  Purely static and byte-stable.
int cmdIpa(int argc, char** argv) {
    std::string path;
    std::string benchToken;
    std::string outPath = "-";
    bool schedule = true;
    bool quiet = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--bench=", 0) == 0)
            benchToken = arg.substr(8);
        else if (arg.rfind("--out=", 0) == 0)
            outPath = arg.substr(6);
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--quiet") quiet = true;
        else if (arg == "--help" || arg == "-h") usage(0);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asbr-verify ipa: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "asbr-verify ipa: extra argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }

    IpaReportMeta meta;
    const Program program =
        loadForSubcommand("ipa", path, benchToken, schedule, meta.benchmark);
    try {
        const analysis::FoldLegalityVerifier verifier(program);
        if (!writeReport("ipa", ipaReportJson(meta, verifier), kIpaReportSpec,
                         outPath))
            return 1;
        if (!quiet) {
            const analysis::ipa::IpaAnalysis& ipa = verifier.ipa();
            std::fprintf(
                stderr,
                "asbr-verify ipa: %zu round(s), %zu defs (%zu phis), "
                "%zu/%zu indirect sites resolved, %zu functions\n",
                ipa.stats.rounds, ipa.stats.ssaDefs, ipa.stats.ssaPhis,
                ipa.resolution.map.size(),
                ipa.resolution.map.size() + ipa.resolution.unresolvedSites,
                ipa.callGraph.functions.size());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}

/// `asbr-verify callgraph`: Graphviz render of the whole-program call graph
/// with the per-function WCET bounds filled in.
int cmdCallgraph(int argc, char** argv) {
    std::string path;
    std::string benchToken;
    std::string outPath = "-";
    bool schedule = true;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--bench=", 0) == 0)
            benchToken = arg.substr(8);
        else if (arg.rfind("--out=", 0) == 0)
            outPath = arg.substr(6);
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--help" || arg == "-h") usage(0);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asbr-verify callgraph: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "asbr-verify callgraph: extra argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }

    std::string name;
    const Program program =
        loadForSubcommand("callgraph", path, benchToken, schedule, name);
    try {
        const analysis::FoldLegalityVerifier verifier(program);
        const analysis::ipa::IpaAnalysis& ipa = verifier.ipa();

        // Fill the per-function WCET bounds from a resolution-aware static
        // run (default cost model, no profile) before rendering.
        analysis::ipa::CallGraph graph = ipa.callGraph;
        analysis::timing::WcetEngine engine(
            ipa.cfg, ipa.values, analysis::timing::TimingCostModel{},
            &ipa.resolution.map);
        const analysis::timing::WcetResult wcet = engine.compute({});
        for (const auto& [entryPc, cycles] : wcet.functionCycles)
            for (analysis::ipa::FunctionSummary& f : graph.functions)
                if (f.entryPc == entryPc) {
                    f.wcetCycles = cycles;
                    f.wcetBounded = true;
                }

        const std::string dot = analysis::ipa::callGraphDot(graph);
        if (outPath == "-") {
            std::fputs(dot.c_str(), stdout);
        } else {
            std::ofstream out(outPath);
            if (!out) {
                std::fprintf(stderr,
                             "asbr-verify callgraph: cannot open '%s' for "
                             "writing\n",
                             outPath.c_str());
                return 1;
            }
            out << dot;
            std::fprintf(stderr, "wrote call graph to %s\n", outPath.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h")
            usage(0);
    if (argc < 2) usage(2);
    if (std::string(argv[1]) == "analyze")
        return cmdAnalyze(argc - 2, argv + 2);
    if (std::string(argv[1]) == "wcet") return cmdWcet(argc - 2, argv + 2);
    if (std::string(argv[1]) == "ipa") return cmdIpa(argc - 2, argv + 2);
    if (std::string(argv[1]) == "callgraph")
        return cmdCallgraph(argc - 2, argv + 2);
    const std::string path = argv[1];

    std::uint32_t threshold = 3;
    std::size_t ways = 16;
    std::size_t sets = 1;
    bool all = false;
    bool useProfile = true;
    bool requireSafe = false;
    bool schedule = true;
    bool strict = false;
    bool quiet = false;
    std::string dumpCfgPath;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threshold=", 0) == 0)
            threshold =
                static_cast<std::uint32_t>(parseCount(arg, arg.substr(12)));
        else if (arg.rfind("--bit=", 0) == 0)
            ways = parseCount(arg, arg.substr(6));
        else if (arg.rfind("--sets=", 0) == 0)
            sets = parseCount(arg, arg.substr(7));
        else if (arg.rfind("--dump-cfg=", 0) == 0)
            dumpCfgPath = arg.substr(11);
        else if (arg == "--all") all = true;
        else if (arg == "--no-profile") { useProfile = false; all = true; }
        else if (arg == "--require-safe") requireSafe = true;
        else if (arg == "--no-schedule") schedule = false;
        else if (arg == "--strict") strict = true;
        else if (arg == "--quiet") quiet = true;
        else {
            std::fprintf(stderr, "asbr-verify: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }

    const Program program = loadProgram(path, schedule);

    analysis::VerifyConfig config;
    config.threshold = threshold;
    config.geometry = {sets, ways};

    try {
        const analysis::FoldLegalityVerifier verifier(program);

        ProgramProfile profile;
        analysis::ObservedMinDistances observed;
        if (useProfile) {
            Memory memory;
            memory.loadProgram(program);
            profile = profileProgram(program, memory);
            for (const auto& [pc, bp] : profile.branches)
                if (bp.execs > 0) observed.emplace(pc, bp.minDistance);
        }

        analysis::VerifyReport report;
        if (all) {
            const auto pcs = allConditionalBranches(program);
            // Non-extractable branches never make it into allConditional-
            // Branches; fold them back in so --all lints those too.
            std::vector<std::uint32_t> lintSet = pcs;
            for (std::size_t i = 0; i < program.code.size(); ++i) {
                const std::uint32_t pc =
                    program.textBase +
                    static_cast<std::uint32_t>(i) * kInstrBytes;
                if (isCondBranch(program.code[i].op) &&
                    !isExtractableBranch(program, pc))
                    lintSet.push_back(pc);
            }
            // --all lints the whole program, not one BIT bank: disable the
            // capacity/conflict geometry checks unless explicitly set.
            analysis::VerifyConfig allConfig = config;
            if (sets == 1) allConfig.geometry.ways = lintSet.size() + 1;
            report = verifier.verify(lintSet, allConfig,
                                     useProfile ? &observed : nullptr);
        } else {
            SelectionConfig selCfg;
            selCfg.bitCapacity = sets * ways;
            selCfg.threshold = threshold;
            selCfg.minExecFraction = 0.0;
            selCfg.requireStaticallySafe = requireSafe;
            const auto candidates =
                selectFoldableBranches(program, profile, {}, selCfg);
            const auto bank =
                extractBranchInfos(program, candidatePcs(candidates));
            report = verifier.verifyBank(bank, config,
                                         useProfile ? &observed : nullptr);
        }

        if (!quiet) {
            std::printf("%-10s %-6s %-8s %-12s %-21s %s\n", "pc", "line",
                        "static", "direction", "verdict", "why");
            for (const auto& b : report.branches) {
                char dist[16];
                if (b.staticMinDistance >= analysis::kFarAway)
                    std::snprintf(dist, sizeof dist, "far");
                else
                    std::snprintf(dist, sizeof dist, "%u",
                                  unsigned{b.staticMinDistance});
                std::printf("0x%08x %-6d %-8s %-12s %-21s %s\n", b.pc,
                            b.sourceLine, dist,
                            analysis::branchDirectionName(b.direction),
                            analysis::foldLegalityName(b.verdict),
                            b.reason.c_str());
            }
            for (const auto& c : report.conflicts)
                std::printf("conflict: %s\n", c.c_str());
            for (const auto& m : report.inconsistencies)
                std::printf("inconsistent: %s\n", m.c_str());
        }
        const std::size_t errorLints = printLints(verifier, config, quiet);

        if (!dumpCfgPath.empty()) dumpCfgTo(dumpCfgPath, verifier, config);

        std::printf(
            "asbr-verify: %zu branches, %zu provably safe, %zu safe on "
            "profiled paths, %zu illegal, %zu conflicts, %zu inconsistencies "
            "(threshold %u)\n",
            report.branches.size(),
            report.count(analysis::FoldLegality::kProvablySafe),
            report.count(analysis::FoldLegality::kSafeOnProfiledPaths),
            report.count(analysis::FoldLegality::kIllegal),
            report.conflicts.size(), report.inconsistencies.size(), threshold);
        if (strict && errorLints != 0) {
            std::printf("asbr-verify: %zu lint error(s) under --strict\n",
                        errorLints);
            return 1;
        }
        return report.ok() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}
