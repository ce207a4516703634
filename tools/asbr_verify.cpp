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
#include <sstream>
#include <string>

#include "analysis/dot.hpp"
#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "driver/artifacts.hpp"
#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
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

/// What every asbr-verify command reads besides its own flags: the program,
/// where its report goes, --no-schedule and --quiet.
struct Target {
    std::string path;              ///< <file>
    std::optional<BenchId> bench;  ///< --bench=B
    std::string name;  ///< report name: the workload token or file base name
    std::string outPath = "-";
    bool schedule = true;
    bool quiet = false;

    /// The program to analyze: the workload's, or the file's.
    [[nodiscard]] Program load() const {
        return bench ? buildBench(*bench, schedule)
                     : driver::loadProgram(path, schedule);
    }
};

/// Which shared flags a command takes besides --no-schedule.  A subcommand
/// reads its program as exactly one of <file> or --bench=B and takes
/// --out=FILE (kReport); all but callgraph take --quiet.  The plain verify
/// command has no report and names its <file> first.
enum SharedFlags : unsigned { kQuiet = 1, kReport = 2 };

/// Parse a command's arguments.  `own(arg, error)` takes the command's own
/// flags first: true when it consumed `arg`, with `error` set for a bad
/// value.  A bad value exits 2 with one line; an unknown option or an extra
/// argument exits 2 with the usage.
template <typename Own>
Target parseTarget(const std::string& who, int argc, char** argv,
                   unsigned shared, Own own) {
    const bool report = (shared & kReport) != 0;
    Target target;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        const auto option = [&](std::string_view prefix) {
            return report ? driver::valueArg(arg, prefix) : std::nullopt;
        };
        if (own(arg, error)) {
        } else if (const auto v = option("--bench=")) {
            target.bench = driver::workloadArg(*v, error);
        } else if (const auto v = option("--out=")) {
            target.outPath = *v;
        } else if (arg == "--no-schedule") {
            target.schedule = false;
        } else if (arg == "--quiet" && (shared & kQuiet) != 0) {
            target.quiet = true;
        } else if (arg.starts_with('-')) {
            std::fprintf(stderr, "%s: unknown option '%s'\n", who.c_str(),
                         arg.c_str());
            usage(2);
        } else if (report && target.path.empty()) {
            target.path = arg;
        } else {
            std::fprintf(stderr, "%s: extra argument '%s'\n", who.c_str(),
                         arg.c_str());
            usage(2);
        }
        if (!error.empty()) driver::cliFail(who.c_str(), error);
    }
    if (report && target.path.empty() != target.bench.has_value())
        driver::cliFail(who.c_str(), "need exactly one of <file> or --bench=B");
    const std::size_t slash = target.path.find_last_of('/');
    target.name = target.bench           ? driver::benchToken(*target.bench)
                  : slash == std::string::npos ? target.path
                                               : target.path.substr(slash + 1);
    return target;
}

/// --dump-cfg=FILE: Graphviz render of the analyzed supergraph.  A failed
/// write throws — CI must not silently lose the artifact.
void dumpCfgTo(const std::string& path,
               const analysis::FoldLegalityVerifier& verifier,
               const analysis::VerifyConfig& config) {
    std::ostringstream out;
    analysis::dumpCfgDot(out, verifier, config);
    driver::writeOutput(path, out.str(), "CFG dump");
}

/// Self-check a report against its schema's field table before anything
/// touches disk, then write it to `outPath` ("-" = stdout).  Returns false,
/// after saying why, when the document is invalid; a failed write throws.
bool writeReport(const JsonValue& doc, const SchemaSpec& spec,
                 const std::string& outPath) {
    const ReportValidation validation = validate(doc, spec);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "schema error: %s\n", error.c_str());
    if (!validation.ok()) return false;
    driver::writeOutput(outPath, doc.dump(2) + "\n", spec.id);
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
    std::string dumpCfgPath;
    std::uint32_t threshold = 3;
    bool strict = false;
    const Target target = parseTarget(
        "asbr-verify analyze", argc, argv, kReport | kQuiet,
        [&](const std::string& arg, std::string& error) {
            if (const auto v = driver::valueArg(arg, "--dump-cfg="))
                dumpCfgPath = *v;
            else if (arg == "--strict")
                strict = true;
            else
                return driver::numArg(arg, "--threshold=", threshold, error);
            return true;
        });

    AnalysisReportMeta meta;
    meta.benchmark = target.name;
    meta.threshold = threshold;
    meta.scheduled = target.schedule;
    const Program program = target.load();
    analysis::VerifyConfig config;
    config.threshold = threshold;
    const analysis::FoldLegalityVerifier verifier(program);

    if (!writeReport(analysisReportJson(meta, verifier, config),
                     kAnalysisReportSpec, target.outPath))
        return 1;

    if (!dumpCfgPath.empty()) dumpCfgTo(dumpCfgPath, verifier, config);
    const std::size_t errorLints = printLints(verifier, config, target.quiet);
    if (!verifier.values().converged) {
        std::fprintf(stderr,
                     "asbr-verify analyze: fixpoint iteration budget "
                     "exhausted (verdicts degraded to Dynamic)\n");
        return 1;
    }
    return strict && errorLints != 0 ? 1 : 0;
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
    std::uint32_t threshold = 3;
    std::uint64_t seed = 2001;
    std::size_t samples = 0;
    std::size_t threads = 1;
    bool strict = false;
    const Target target = parseTarget(
        "asbr-verify wcet", argc, argv, kReport | kQuiet,
        [&](const std::string& arg, std::string& error) {
            if (arg == "--strict") {
                strict = true;
                return true;
            }
            return driver::numArg(arg, "--threshold=", threshold, error) ||
                   driver::numArg(arg, "--seed=", seed, error) ||
                   driver::numArg(arg, "--samples=", samples, error) ||
                   driver::numArg(arg, "--threads=", threads, error);
        });
    if (threshold < 2 || threshold > 4)
        driver::cliFail("asbr-verify wcet", "threshold must be 2, 3 or 4");

    WcetReportMeta meta;
    meta.benchmark = target.name;
    meta.threshold = threshold;
    meta.scheduled = target.schedule;
    meta.seed = seed;
    meta.samples = 0;
    // A workload runs on its generated input, resolved to a sample count
    // by the engine's own rule (0 = the input buffer's capacity).
    std::optional<driver::Prepared> prepared;
    if (target.bench) {
        driver::SimJob job;
        job.workload = *target.bench;
        job.scheduled = target.schedule;
        job.seed = seed;
        job.samples = samples;
        const driver::WorkloadKey key =
            driver::SimEngine().workloadKeyFor(job);
        prepared = driver::prepare(key.workload, key.scheduled, key.seed,
                                   key.samples);
        meta.samples = key.samples;
    }
    const Program program = prepared ? prepared->program : target.load();
    // Every run gets a fresh memory image: the program, plus its input.
    const auto freshMemory = [&] {
        if (prepared) return driver::makeMemory(*prepared);
        Memory memory;
        memory.loadProgram(program);
        return memory;
    };

    analysis::VerifyConfig config;
    config.threshold = threshold;
    const analysis::FoldLegalityVerifier verifier(program);

    const PipelineConfig pipeConfig;
    analysis::timing::WcetEngine engine(
        verifier.cfg(), verifier.values(),
        analysis::timing::TimingCostModel::fromPipeline(pipeConfig),
        &verifier.ipa().resolution.map);

    // Loops neither annotation nor inference could bound fall back to a
    // measured per-entry maximum (flagged `profile` in the report).  The
    // walk runs under the measured runs' bound: the pipeline commits at
    // most one instruction per cycle, so a program those runs accept
    // never trips it.
    {
        Memory observeMemory = freshMemory();
        engine.applyObservedBounds(analysis::timing::observeLoopBounds(
            program, observeMemory, engine.loops(), pipeConfig.maxCycles));
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

    // The two measured runs (0 baseline, 1 folded) are independent;
    // --threads=2 overlaps them.  Either way each run builds its own
    // memory/predictor/unit, so the cycle counts (and therefore the
    // report) never depend on N.
    std::uint64_t measured[2] = {0, 0};
    driver::parallelFor(2, threads, [&](std::size_t run) {
        const std::unique_ptr<AsbrUnit> unit =
            run == 1 ? makeUnit() : nullptr;
        const auto predictor = driver::makePredictorByToken("bimodal");
        Memory memory = freshMemory();
        PipelineSim sim(program, memory, *predictor, pipeConfig,
                        unit.get());
        const PipelineResult result = sim.run();
        ASBR_ENSURE(result.exited && result.exitCode == 0,
                    "program did not exit cleanly");
        measured[run] = result.stats.cycles;
    });
    const std::uint64_t measuredBaseline = measured[0];
    const std::uint64_t measuredFolded = measured[1];

    if (!writeReport(wcetReportJson(meta, engine, baseline, folded,
                                    foldedPcs, measuredBaseline,
                                    measuredFolded),
                     kWcetReportSpec, target.outPath))
        return 1;

    std::size_t unbounded = 0;
    for (const auto& loop : engine.loops())
        if (!loop.bound.bounded()) ++unbounded;
    if (!target.quiet)
        std::fprintf(stderr,
                     "asbr-verify wcet: baseline bound %llu (measured "
                     "%llu), folded bound %llu (measured %llu), %zu "
                     "loops (%zu unbounded), %zu branches folded\n",
                     static_cast<unsigned long long>(baseline.cycles),
                     static_cast<unsigned long long>(measuredBaseline),
                     static_cast<unsigned long long>(folded.cycles),
                     static_cast<unsigned long long>(measuredFolded),
                     engine.loops().size(), unbounded, foldedPcs.size());
    if (!target.quiet)
        for (const auto& [name, counter] : metrics.counters())
            std::fprintf(stderr, "  %s = %llu\n", name.c_str(),
                         static_cast<unsigned long long>(counter.value()));

    const std::size_t errorLints = printLints(verifier, config, target.quiet);

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
}

/// `asbr-verify ipa`: emit the schema-versioned asbr.ipa_report — SSA/SCCP
/// pipeline statistics, indirect-jump resolution, call-graph summaries and
/// the resolution-aware static WCET.  Purely static and byte-stable.
int cmdIpa(int argc, char** argv) {
    const Target target =
        parseTarget("asbr-verify ipa", argc, argv, kReport | kQuiet,
                    [](const std::string&, std::string&) { return false; });
    IpaReportMeta meta;
    meta.benchmark = target.name;
    const Program program = target.load();
    const analysis::FoldLegalityVerifier verifier(program);
    if (!writeReport(ipaReportJson(meta, verifier), kIpaReportSpec,
                     target.outPath))
        return 1;
    if (!target.quiet) {
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
}

/// `asbr-verify callgraph`: Graphviz render of the whole-program call graph
/// with the per-function WCET bounds filled in.
int cmdCallgraph(int argc, char** argv) {
    const Target target =
        parseTarget("asbr-verify callgraph", argc, argv, kReport,
                    [](const std::string&, std::string&) { return false; });
    const Program program = target.load();
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

    driver::writeOutput(target.outPath, analysis::ipa::callGraphDot(graph),
                        "call graph");
    return 0;
}

/// `asbr-verify <file>`: verify the fold legality of the profiler-driven
/// selection (or of every conditional branch with --all).
int cmdVerify(int argc, char** argv) {
    std::uint32_t threshold = 3;
    std::size_t ways = 16;
    std::size_t sets = 1;
    bool all = false;
    bool useProfile = true;
    bool requireSafe = false;
    bool strict = false;
    std::string dumpCfgPath;
    Target target = parseTarget(
        "asbr-verify", argc - 1, argv + 1, kQuiet,
        [&](const std::string& arg, std::string& error) {
            if (const auto v = driver::valueArg(arg, "--dump-cfg="))
                dumpCfgPath = *v;
            else if (arg == "--all")
                all = true;
            else if (arg == "--no-profile") {
                useProfile = false;
                all = true;
            } else if (arg == "--require-safe")
                requireSafe = true;
            else if (arg == "--strict")
                strict = true;
            else
                return driver::numArg(arg, "--threshold=", threshold, error) ||
                       driver::numArg(arg, "--bit=", ways, error) ||
                       driver::numArg(arg, "--sets=", sets, error);
            return true;
        });
    target.path = argv[0];

    analysis::VerifyConfig config;
    config.threshold = threshold;
    config.geometry = {sets, ways};

    const Program program = target.load();
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

    if (!target.quiet) {
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
    const std::size_t errorLints = printLints(verifier, config, target.quiet);

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
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--help" || std::string(argv[i]) == "-h")
            usage(0);
    if (argc < 2) usage(2);
    const std::string command = argv[1];
    try {
        if (command == "analyze") return cmdAnalyze(argc - 2, argv + 2);
        if (command == "wcet") return cmdWcet(argc - 2, argv + 2);
        if (command == "ipa") return cmdIpa(argc - 2, argv + 2);
        if (command == "callgraph") return cmdCallgraph(argc - 2, argv + 2);
        return cmdVerify(argc - 1, argv + 1);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-verify: %s\n", e.what());
        return 1;
    }
}
