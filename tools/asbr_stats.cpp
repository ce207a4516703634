// asbr-stats — the observability CLI.
//
// One binary that exercises the whole reporting layer end to end:
//   counters   print the canonical metric catalogue (docs/metrics.md is
//              checked against this list by ci/docs-check.sh)
//   run        simulate one benchmark under a chosen predictor (optionally
//              with ASBR folding, a pipeline trace, or --sample=W:M:S sampled
//              simulation) and export a schema-versioned asbr.sim_report or
//              asbr.sampling_report
//   report     regenerate the Figure 6 + Figure 11 sweeps as one
//              asbr.bench_report document (what ci/bench-report.sh runs)
//   validate   schema-check any report document produced above
//
// Every command is a thin job-spec builder over driver::SimEngine; `report`
// runs its whole batch on the engine worker pool (--threads=N) and is
// byte-identical at any thread count.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>

#include "bp/bimodal.hpp"
#include "bp/perceptron.hpp"
#include "bp/registry.hpp"
#include "bp/tage.hpp"
#include "bench_util.hpp"
#include "profile/selection.hpp"
#include "report/sampling_report.hpp"
#include "report/schema.hpp"
#include "sim/sampling.hpp"
#include "util/trace.hpp"

using namespace asbr;
using namespace asbr::bench;

namespace {

[[noreturn]] void usage(int code) {
    std::fputs(
        "usage: asbr-stats <command> [options]\n"
        "\n"
        "commands:\n"
        "  counters              list every metric name the simulator registers\n"
        "  predictors            list predictor families, tokens, storage bits\n"
        "  run --bench=B [...]   simulate one benchmark; export report / trace\n"
        "  report [--out=FILE]   Figure 6 + 11 sweep as one asbr.bench_report (default out: BENCH_asbr.json)\n"
        "  validate FILE         schema-check a report document\n"
        "\n"
        "run options:\n"
        "  --bench=adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec\n"
        "  --predictor=TOKEN     predictor registry token (family, optionally\n"
        "                        parameterized — 'asbr-stats predictors' lists\n"
        "                        the grammar; default bimodal)\n"
        "  --asbr [--bit=N] [--stage=ex_end|mem_end|commit] [--protected]\n"
        "  --static-folds        fold statically-decided branches from the\n"
        "                        static table (implies --asbr)\n"
        "  --predictor-aware     fold only branches the run's own predictor\n"
        "                        demonstrably loses (implies --asbr)\n"
        "  --sample=W:M:S        sampled simulation: W warmup / M measure\n"
        "                        instructions per window, S fast-forwarded\n"
        "                        between windows; exports asbr.sampling_report\n"
        "  --sample-ref          also run the full cycle-accurate reference\n"
        "                        and report the achieved sampling error\n"
        "  --min-mips=N          exit 3 if host sim speed falls below N MIPS\n"
        "  --json=FILE           write an asbr.sim_report (\"-\" = stdout)\n"
        "  --trace=FILE          record a pipeline trace to FILE\n"
        "  --trace-format=chrome|jsonl   (default chrome)\n"
        "  --trace-start=N --trace-end=N --trace-max=N   trace window / cap\n"
        "\n"
        "shared options: --quick --seed=N --adpcm=N --g721=N --threads=N\n"
        "                --workload=W --csv --json=FILE --sample=W:M:S\n"
        "                --job-timeout=MS --max-attempts=N\n"
        "                (--journal=DIR / --resume are durable-sweep flags —\n"
        "                 asbr-sweep and asbr-faults campaign only; rejected\n"
        "                 here with a clear error)\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

/// Single-run commands have no journal: fail fast instead of silently
/// ignoring a flag the user expected to persist something.
bool rejectJournalFlags(const char* command, const Options& options) {
    if (options.journalDir.empty() && !options.resume) return false;
    std::fprintf(stderr,
                 "%s: --journal/--resume apply to asbr-sweep and asbr-faults "
                 "campaign (docs/robustness.md)\n",
                 command);
    return true;
}

void writeTextTo(const std::string& path, const std::string& text,
                 const char* what) {
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << text;
    std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
}

int cmdCounters() {
    // Zero-valued publishes from every metric-owning component enumerate the
    // complete namespace without running a simulation.
    MetricRegistry registry;
    PipelineStats{}.publish(registry);
    makeBimodal2048()->publishMetrics(registry);
    // Family-specific counters only: bp.storage_bits is already claimed.
    makeTage()->publishFamilyMetrics(registry);
    makePerceptron()->publishFamilyMetrics(registry);
    AsbrUnit().publishMetrics(registry);
    driver::SimEngine().publishMetrics(registry);
    analysis::timing::WcetMetrics{}.publish(registry);
    StaticCostSelectionMetrics{}.publish(registry);
    PredictorAwareSelectionMetrics{}.publish(registry);
    SampledResult{}.publish(registry);
    SimSpeed{}.publish(registry);
    for (const auto& entry : registry.catalogue()) {
        const char* kind = "counter";
        if (entry.kind == MetricRegistry::Entry::Kind::kHistogram)
            kind = "histogram";
        else if (entry.kind == MetricRegistry::Entry::Kind::kSites)
            kind = "sites";
        std::printf("%-34s %-9s %s\n", entry.name.c_str(), kind,
                    entry.help.c_str());
    }
    return 0;
}

int cmdPredictors() {
    // One row per registered family: prefix, default storage bits, token
    // grammar, then the one-line summary.  The prefix is the first word so
    // scripted consumers (ci/docs-check.sh) can lift the token list with awk.
    for (const PredictorFamily& family :
         PredictorRegistry::instance().families()) {
        const std::uint64_t bits =
            PredictorRegistry::instance().storageBits(family.prefix);
        std::printf("%-12s %8llu bits  %-34s %s\n", family.prefix.c_str(),
                    static_cast<unsigned long long>(bits),
                    family.grammar.c_str(), family.summary.c_str());
    }
    return 0;
}

int cmdRun(int argc, char** argv) {
    Options options;
    std::string bench;
    SimJob job;
    job.figure = "run";
    std::string tracePath;
    std::string traceFormat = "chrome";
    std::optional<std::uint64_t> minMips;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (driver::consumeSharedOption(arg, options, error)) {
            if (!error.empty()) {
                std::fprintf(stderr, "run: %s\n", error.c_str());
                return 2;
            }
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench = arg.substr(8);
        } else if (arg.rfind("--predictor=", 0) == 0) {
            job.predictor = arg.substr(12);
        } else if (arg == "--asbr") {
            job.asbr = true;
        } else if (arg == "--static-folds") {
            job.staticFolds = true;
            job.asbr = true;
        } else if (arg == "--predictor-aware") {
            job.predictorAware = true;
            job.asbr = true;
        } else if (arg == "--protected") {
            job.parityProtected = true;
            job.asbr = true;
        } else if (const auto v = driver::numArg(arg, "--bit=")) {
            job.bitEntries = *v;
            job.asbr = true;
        } else if (arg.rfind("--stage=", 0) == 0) {
            const auto s = driver::stageFromToken(arg.substr(8));
            if (!s) {
                std::fprintf(stderr, "run: unknown --stage '%s'\n",
                             arg.substr(8).c_str());
                return 2;
            }
            job.updateStage = *s;
            job.asbr = true;
        } else if (arg == "--sample-ref") {
            job.sampleReference = true;
        } else if (const auto v = driver::numArg(arg, "--min-mips=")) {
            minMips = *v;
        } else if (arg.rfind("--trace=", 0) == 0) {
            tracePath = arg.substr(8);
        } else if (arg.rfind("--trace-format=", 0) == 0) {
            traceFormat = arg.substr(15);
            if (traceFormat != "chrome" && traceFormat != "jsonl") {
                std::fprintf(stderr, "run: unknown --trace-format '%s'\n",
                             traceFormat.c_str());
                return 2;
            }
        } else if (const auto v = driver::numArg(arg, "--trace-start=")) {
            job.traceConfig.startCycle = *v;
        } else if (const auto v = driver::numArg(arg, "--trace-end=")) {
            job.traceConfig.endCycle = *v;
        } else if (const auto v = driver::numArg(arg, "--trace-max=")) {
            job.traceConfig.maxEvents = *v;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "run: unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }

    // --workload= (shared spelling) and --bench= (historical) are aliases.
    auto id = bench.empty() ? options.workload : driver::benchFromToken(bench);
    if (!id) {
        std::fprintf(stderr, "run: --bench is required (%s)\n",
                     driver::benchTokenList());
        return 2;
    }
    std::string predictorError;
    if (driver::makePredictorByToken(job.predictor, &predictorError) ==
        nullptr) {
        std::fprintf(stderr, "run: %s\n", predictorError.c_str());
        return 2;
    }
    if (job.staticFolds && job.predictorAware) {
        std::fprintf(stderr,
                     "run: --static-folds and --predictor-aware are "
                     "exclusive\n");
        return 2;
    }
    if (rejectJournalFlags("run", options)) return 2;
    job.workload = *id;
    job.seed = options.seed;
    job.samples = samplesFor(options, *id);
    if (options.sample) {
        job.sampled = true;
        job.sampling = *options.sample;
    }
    if (job.sampleReference && !job.sampled) {
        std::fprintf(stderr, "run: --sample-ref requires --sample=W:M:S\n");
        return 2;
    }
    if (!tracePath.empty()) job.trace = true;

    SimEngine engine(driver::engineConfigFor(options));
    const JobResult r = engine.runOne(job);
    // Simulation-phase wall clock, measured by the engine around the
    // pipeline / sampled / reference runs only — compile/profile/select
    // artifact work is cached across jobs and must not skew the speed line.
    const double hostSeconds = r.simSeconds;
    if (job.staticFolds)
        std::fprintf(stderr,
                     "static folds: %zu branch(es) in the static table, "
                     "%llu BIT slot(s) reclaimed\n",
                     r.staticFoldCount,
                     static_cast<unsigned long long>(r.bitSlotsReclaimed));

    if (r.sampled != nullptr) {
        const SampledResult& s = *r.sampled;
        TextTable table(std::string("asbr-stats run (sampled): ") +
                        benchName(*id) + " / " + r.report.meta.predictor +
                        (job.asbr ? " + ASBR" : ""));
        table.setHeader({"windows", "measured instr", "fast-forwarded",
                         "CPI estimate", "ci95 +/-", "fold rate"});
        table.addRow({formatWithCommas(s.windows.size()),
                      formatWithCommas(s.measuredInstructions),
                      formatWithCommas(s.fastForwardInstructions),
                      formatFixed(s.cpiEstimate, 3),
                      formatFixed(s.ci95HalfWidth, 4),
                      formatPercent(s.stats.foldRate())});
        printTable(options, table);
        if (r.hasReference && r.referenceCommitted > 0) {
            const double refCpi = static_cast<double>(r.referenceCycles) /
                                  static_cast<double>(r.referenceCommitted);
            const double errPct =
                refCpi == 0.0
                    ? 0.0
                    : 100.0 * std::fabs(s.cpiEstimate - refCpi) / refCpi;
            std::fprintf(
                stderr,
                "reference: %s cycles over %s instructions (CPI %s); "
                "sampled estimate off by %.2f%%\n",
                formatWithCommas(r.referenceCycles).c_str(),
                formatWithCommas(r.referenceCommitted).c_str(),
                formatFixed(refCpi, 3).c_str(), errPct);
        }
    } else {
        TextTable table(std::string("asbr-stats run: ") + benchName(*id) +
                        " / " + r.report.meta.predictor +
                        (job.asbr ? " + ASBR" : ""));
        table.setHeader(
            {"cycles", "CPI", "resolution acc", "folds", "fold rate"});
        table.addRow({formatWithCommas(r.stats.cycles),
                      formatFixed(r.stats.cpi(), 3),
                      formatPercent(r.stats.resolutionAccuracy()),
                      formatWithCommas(r.stats.foldedBranches),
                      formatPercent(r.stats.foldRate())});
        printTable(options, table);
    }

    if (!options.jsonPath.empty()) {
        if (r.sampled != nullptr) {
            std::optional<SamplingReference> reference;
            if (r.hasReference)
                reference =
                    SamplingReference{r.referenceCycles, r.referenceCommitted};
            const JsonValue doc = samplingReportJson(
                r.report.meta, job.sampling, *r.sampled, reference);
            writeTextTo(options.jsonPath, doc.dump(2) + "\n",
                        "sampling report");
        } else {
            const JsonValue doc = simReportJson(r.report);
            writeTextTo(options.jsonPath, doc.dump(2) + "\n", "sim report");
        }
    }

    if (!tracePath.empty()) {
        std::ostringstream out;
        if (traceFormat == "jsonl")
            r.tracer->writeJsonl(out);
        else
            r.tracer->writeChrome(out);
        writeTextTo(tracePath, out.str(), "pipeline trace");
        if (r.tracer->truncated())
            std::fprintf(stderr,
                         "note: trace truncated at %zu events "
                         "(raise --trace-max or narrow the window)\n",
                         r.tracer->events().size());
    }

    // Host throughput is hardware-dependent by construction, so it stays on
    // stderr (never in the JSON artifacts CI byte-compares).
    const std::uint64_t simulated =
        (r.sampled != nullptr ? r.sampled->totalInstructions
                              : r.stats.committed) +
        r.referenceCommitted;
    const double mips = hostSeconds > 0.0
                            ? static_cast<double>(simulated) / 1e6 / hostSeconds
                            : 0.0;
    std::fprintf(stderr, "sim speed: %.1f MIPS (%s instructions in %.2fs)\n",
                 mips, formatWithCommas(simulated).c_str(), hostSeconds);
    if (minMips && mips < static_cast<double>(*minMips)) {
        std::fprintf(stderr,
                     "run: sim speed %.1f MIPS below --min-mips floor %llu\n",
                     mips, static_cast<unsigned long long>(*minMips));
        return 3;
    }
    return 0;
}

int cmdReport(int argc, char** argv) {
    Options options;
    options.jsonPath = "BENCH_asbr.json";
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (arg.rfind("--out=", 0) == 0) {
            options.jsonPath = arg.substr(6);
        } else if (driver::consumeSharedOption(arg, options, error)) {
            if (!error.empty()) {
                std::fprintf(stderr, "report: %s\n", error.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "report: unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }

    if (rejectJournalFlags("report", options)) return 2;

    // The whole Figure 6 + Figure 11 grid as one engine batch: per bench,
    // the three baseline predictors, then ASBR with the paper's BIT size
    // under each auxiliary predictor.  Submission order fixes report order.
    SimEngine engine(driver::engineConfigFor(options));
    ReportSink sink("asbr-stats report", options);
    std::vector<SimJob> jobs;
    for (const BenchId id : benchList(options, kAllBenches)) {
        for (const char* predictor : {"not-taken", "bimodal", "gshare"})
            jobs.push_back(baseJob(options, id, predictor, "fig6"));
        for (const char* aux : {"not-taken", "bi512", "bi256"}) {
            SimJob job = baseJob(options, id, aux, "fig11");
            job.asbr = true;
            jobs.push_back(job);
        }
    }
    for (const JobResult& r : engine.run(jobs)) sink.add(r);

    const std::string text = sink.write();

    // Self-check: the document we just wrote must pass its own validator.
    const JsonParseResult parsed = parseJson(text);
    if (!parsed.ok()) {
        std::fprintf(stderr, "internal error: emitted invalid JSON: %s\n",
                     parsed.error.c_str());
        return 1;
    }
    const ReportValidation validation = validateBenchReportJson(*parsed.value);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "schema error: %s\n", error.c_str());
    if (!validation.ok()) return 1;
    std::fprintf(stderr, "report validates against %s v%llu (%zu runs)\n",
                 kBenchReportSchema,
                 static_cast<unsigned long long>(kReportSchemaVersion),
                 sink.runCount());
    return 0;
}

int cmdValidate(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const JsonParseResult parsed = parseJson(buffer.str());
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     parsed.error.c_str());
        return 1;
    }
    const JsonValue* schema = parsed.value->find("schema");
    if (schema == nullptr || !schema->isString()) {
        std::fprintf(stderr, "%s: missing string member 'schema'\n", path);
        return 1;
    }
    const SchemaSpec* spec = findSchema(schema->asString());
    if (spec == nullptr) {
        std::fprintf(stderr, "%s: unknown schema '%s'\n", path,
                     schema->asString().c_str());
        return 1;
    }
    const ReportValidation validation = validate(*parsed.value, *spec);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    if (!validation.ok()) return 1;
    std::printf("%s: valid %s v%llu document\n", path, spec->id.c_str(),
                static_cast<unsigned long long>(spec->version));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) usage(2);
        const std::string command = argv[1];
        if (command == "--help" || command == "-h" || command == "help")
            usage(0);
        if (command == "counters") return cmdCounters();
        if (command == "predictors") return cmdPredictors();
        if (command == "run") return cmdRun(argc - 2, argv + 2);
        if (command == "report") return cmdReport(argc - 2, argv + 2);
        if (command == "validate") {
            if (argc != 3) usage(2);
            return cmdValidate(argv[2]);
        }
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        usage(2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-stats: error: %s\n", e.what());
        return 1;
    }
}
