// asbr-sweep — parameter-grid sweeps over the driver engine.
//
// Cross-products workload x predictor x BIT-size x update-stage axes into
// one SimJob batch and runs it through the engine's durable executor
// (docs/robustness.md): an optional write-ahead job journal (--journal=DIR,
// --resume), a per-job wall-clock watchdog (--job-timeout=MS), bounded
// retry (--max-attempts=N) and quarantine — a persistently failing cell
// lands in the report's failed_jobs section instead of aborting the grid.
// Expansion order is fixed and results merge in submission order, so the
// asbr.sweep_report is byte-identical at any thread count and across a
// kill/--resume cycle — ci/resume.sh diffs whole files to prove it.
//
// Exit codes: 0 success, 2 bad command line, 3 at least one cell
// quarantined, 130 interrupted (journal checkpointed; rerun with --resume).
//
// Examples:
//   asbr-sweep --quick --bits=1,4,16 --predictors=bi512 --json=-
//   asbr-sweep --workload=g721-enc --stages=commit,mem_end,ex_end
//              --baseline --threads=8 --json=sweep.json
//   asbr-sweep --journal=sweep.j --resume --json=sweep.json
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bp/registry.hpp"
#include "driver/sweep.hpp"
#include "report/sweep_report.hpp"

using namespace asbr;
using namespace asbr::bench;

namespace {

[[noreturn]] void usage(int code) {
    FILE* out = code == 0 ? stdout : stderr;
    std::fputs(
        "usage: asbr-sweep [options]\n"
        "\n"
        "grid axes (comma-separated lists; the cross-product is simulated):\n"
        "  --workloads=W1,W2,...   default: all six benchmarks\n"
        "  --predictors=P1,P2,...  default: bimodal; registered tokens:\n",
        out);
    for (const PredictorFamily& family : PredictorRegistry::instance().families())
        std::fprintf(out, "                            %-28s %s\n",
                     family.grammar.c_str(), family.summary.c_str());
    std::fputs(
        "  --bits=N1,N2,...        BIT entries; 0 = the paper's per-benchmark\n"
        "                          count (default: 0)\n"
        "  --stages=S1,S2,...      ex_end|mem_end|commit (default: mem_end)\n"
        "\n"
        "grid flags (applied to every ASBR point):\n"
        "  --protected             enable BDT/BIT parity protection\n"
        "  --static-folds          two-class selection + static fold table\n"
        "  --predictor-aware       fold only branches each point's own\n"
        "                          predictor demonstrably loses\n"
        "  --baseline              also run each workload x predictor point\n"
        "                          without ASBR, before its ASBR points\n"
        "\n"
        "durability (docs/robustness.md):\n"
        "  --journal=DIR           write-ahead job journal + result artifacts\n"
        "  --resume                resume DIR's journal: completed cells are\n"
        "                          spliced, the rest re-run (byte-identical)\n"
        "  --job-timeout=MS        per-attempt wall-clock watchdog (0 = off)\n"
        "  --max-attempts=N        attempts before a cell is quarantined\n"
        "\n"
        "output:\n"
        "  --json=FILE             write the asbr.sweep_report (\"-\" = stdout)\n"
        "\n"
        "shared options: --quick --seed=N --adpcm=N --g721=N --threads=N\n"
        "                --workload=W (single-workload shorthand) --csv\n"
        "                --sample=W:M:S (every cell a sampled run; the\n"
        "                cells of one workload share one fast-forward log)\n",
        out);
    std::exit(code);
}

std::vector<std::string> splitList(const std::string& text) {
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end = comma == std::string::npos ? text.size() : comma;
        if (end > start) items.push_back(text.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return items;
}

const char* stageToken(ValueStage stage) {
    switch (stage) {
        case ValueStage::kExEnd: return "ex_end";
        case ValueStage::kMemEnd: return "mem_end";
        case ValueStage::kCommit: return "commit";
    }
    return "?";
}

std::atomic<bool> gInterrupted{false};

extern "C" void onSignal(int) { gInterrupted.store(true); }

/// counters["<name>"] from a serialized asbr.sim_report, 0 when absent.
std::uint64_t reportCounter(const JsonValue& report, const char* name) {
    const JsonValue* counters = report.find("counters");
    if (counters == nullptr) return 0;
    const JsonValue* v = counters->find(name);
    return v != nullptr && v->isNumber() ? v->asUint() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options options;
    driver::SweepGrid grid;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (driver::consumeSharedOption(arg, options, error)) {
            if (!error.empty()) driver::cliFail(argv[0], error);
        } else if (arg.rfind("--workloads=", 0) == 0) {
            grid.workloads.clear();
            for (const std::string& token : splitList(arg.substr(12))) {
                const auto id = driver::benchFromToken(token);
                if (!id)
                    driver::cliFail(argv[0], "unknown workload '" + token +
                                                 "' (" +
                                                 driver::benchTokenList() + ")");
                grid.workloads.push_back(*id);
            }
        } else if (arg.rfind("--predictors=", 0) == 0) {
            grid.predictors.clear();
            for (const std::string& token : splitList(arg.substr(13))) {
                std::string tokenError;
                if (driver::makePredictorByToken(token, &tokenError) == nullptr)
                    driver::cliFail(argv[0], tokenError);
                grid.predictors.push_back(token);
            }
        } else if (arg.rfind("--bits=", 0) == 0) {
            grid.bitSizes.clear();
            for (const std::string& token : splitList(arg.substr(7)))
                grid.bitSizes.push_back(std::strtoull(token.c_str(), nullptr, 10));
        } else if (arg.rfind("--stages=", 0) == 0) {
            grid.stages.clear();
            for (const std::string& token : splitList(arg.substr(9))) {
                const auto stage = driver::stageFromToken(token);
                if (!stage)
                    driver::cliFail(argv[0], "unknown stage '" + token +
                                                 "' (ex_end|mem_end|commit)");
                grid.stages.push_back(*stage);
            }
        } else if (arg == "--protected") {
            grid.parityProtected = true;
        } else if (arg == "--static-folds") {
            grid.staticFolds = true;
        } else if (arg == "--predictor-aware") {
            grid.predictorAware = true;
        } else if (arg == "--baseline") {
            grid.includeBaseline = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            driver::cliFail(argv[0],
                            "unknown option '" + arg + "' (try --help)");
        }
    }
    if (grid.predictors.empty() || grid.bitSizes.empty() ||
        grid.stages.empty())
        driver::cliFail(argv[0], "every grid axis needs at least one value");
    if (grid.staticFolds && grid.predictorAware)
        driver::cliFail(argv[0],
                        "--static-folds and --predictor-aware are exclusive");
    if (options.resume && options.journalDir.empty())
        driver::cliFail(argv[0], "--resume requires --journal=DIR");
    // --workload=W is shorthand for --workloads=W.
    if (options.workload.has_value()) grid.workloads = {*options.workload};

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    const std::vector<SimJob> jobs = driver::expandSweep(grid, options);
    SimEngine engine(driver::engineConfigFor(options));

    driver::DurablePolicy policy;
    policy.journalDir = options.journalDir;
    policy.resume = options.resume;
    policy.interrupted = &gInterrupted;
    const driver::DurableRunResult outcome = engine.runDurable(jobs, policy);

    TextTable table("asbr-sweep: " + std::to_string(jobs.size()) +
                    " grid point(s)");
    table.setHeader({"benchmark", "predictor", "ASBR", "BIT", "stage",
                     "cycles", "CPI", "folds", "status"});
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        const SimJob& job = jobs[i];
        const driver::CellOutcome& cell = outcome.cells[i];
        std::string cycles = "-";
        std::string cpi = "-";
        std::string folds = "-";
        std::string status;
        switch (cell.status) {
            case driver::CellStatus::kOk: {
                cycles = formatWithCommas(
                    reportCounter(cell.report, "pipeline.cycles"));
                const JsonValue* derived = cell.report.find("derived");
                const JsonValue* cpiValue =
                    derived != nullptr ? derived->find("cpi") : nullptr;
                if (cpiValue != nullptr && cpiValue->isNumber())
                    cpi = formatFixed(cpiValue->asDouble(), 3);
                folds = formatWithCommas(
                    reportCounter(cell.report, "asbr.folds"));
                status = cell.resumed ? "ok (resumed)" : "ok";
                break;
            }
            case driver::CellStatus::kFailed:
                status = "failed x" + std::to_string(cell.attempts);
                break;
            case driver::CellStatus::kSkipped:
                status = "skipped";
                break;
        }
        table.addRow({driver::benchToken(job.workload), job.predictor,
                      job.asbr ? "yes" : "no",
                      job.asbr ? std::to_string(job.bitEntries) : "-",
                      job.asbr ? stageToken(job.updateStage) : "-", cycles, cpi,
                      folds, status});
    }
    printTable(options, table);

    const driver::EngineStats stats = engine.stats();
    std::fprintf(stderr,
                 "engine: %llu job(s), %llu shared, %llu cache hit(s), "
                 "%llu busy cycle(s), %llu resumed\n",
                 static_cast<unsigned long long>(stats.jobsRun),
                 static_cast<unsigned long long>(stats.jobsShared),
                 static_cast<unsigned long long>(stats.cacheHits),
                 static_cast<unsigned long long>(stats.workerBusyCycles),
                 static_cast<unsigned long long>(stats.jobsResumed));
    for (const driver::CellOutcome& cell : outcome.cells)
        if (cell.status == driver::CellStatus::kFailed)
            std::fprintf(stderr,
                         "asbr-sweep: quarantined %s after %llu attempt(s): "
                         "%s\n",
                         cell.key.c_str(),
                         static_cast<unsigned long long>(cell.attempts),
                         cell.error.c_str());

    if (outcome.interrupted) {
        std::fprintf(stderr,
                     "asbr-sweep: interrupted — journal checkpointed; rerun "
                     "with --resume to continue\n");
        return 130;
    }

    if (!options.jsonPath.empty()) {
        // The options block records what determined the document's bytes —
        // deliberately NOT --threads / --journal / --resume, which must not
        // change them.
        JsonObject optionsJson;
        optionsJson.emplace_back(
            "adpcm_samples", static_cast<std::uint64_t>(options.adpcmSamples));
        optionsJson.emplace_back(
            "g721_samples", static_cast<std::uint64_t>(options.g721Samples));
        optionsJson.emplace_back("seed", options.seed);
        if (options.sample)
            optionsJson.emplace_back(
                "sample", std::to_string(options.sample->warmup) + ":" +
                              std::to_string(options.sample->measure) + ":" +
                              std::to_string(options.sample->skip));
        std::vector<SweepCell> cells;
        cells.reserve(outcome.cells.size());
        for (const driver::CellOutcome& cell : outcome.cells) {
            SweepCell out;
            out.job = cell.key;
            out.status =
                cell.status == driver::CellStatus::kOk ? "ok" : "failed";
            out.attempts = cell.attempts;
            out.report = cell.report;
            out.error = cell.error;
            cells.push_back(std::move(out));
        }
        const JsonValue doc = sweepReportJson(
            "asbr-sweep", JsonValue(std::move(optionsJson)), cells);
        const std::string text = doc.dump(2) + "\n";
        if (options.jsonPath == "-") {
            std::fputs(text.c_str(), stdout);
        } else {
            std::ofstream out(options.jsonPath);
            if (!out) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             options.jsonPath.c_str());
                return 1;
            }
            out << text;
            std::fprintf(stderr, "wrote sweep report (%zu cells) to %s\n",
                         cells.size(), options.jsonPath.c_str());
        }
    }
    return outcome.countWith(driver::CellStatus::kFailed) > 0 ? 3 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "asbr-sweep: error: %s\n", e.what());
    return 1;
  }
}
