// Shared plumbing for the table/figure regeneration binaries.
//
// Every binary in bench/ reproduces one table or figure from the paper's
// evaluation (Section 8) or an ablation of a design choice DESIGN.md calls
// out.  Since the driver layer landed, each binary is a thin job-spec
// builder: it expands its figure into declarative driver::SimJobs, hands the
// batch to one driver::SimEngine (which caches load/profile/select artifacts
// and runs jobs on --threads workers), and renders tables from the results —
// all of the orchestration that used to live here (workload preparation,
// pipeline invocation, the profile->select->extract pipeline) now lives in
// src/driver.
#pragma once

#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/job.hpp"
#include "driver/names.hpp"
#include "report/report.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace asbr::bench {

using driver::JobResult;
using driver::SimEngine;
using driver::SimJob;
using Options = driver::CliOptions;

using driver::paperBitEntries;
using driver::samplesFor;
using driver::thresholdFor;

/// Parse the shared driver options (--quick --seed=N --adpcm=N --g721=N
/// --threads=N --workload=W --csv --json=FILE --job-timeout=MS
/// --max-attempts=N); unknown arguments are rejected with a one-line
/// structured error and exit code 2.  The engine takes --threads,
/// --job-timeout and --max-attempts through driver::engineConfigFor.
[[nodiscard]] Options parseOptions(int argc, char** argv);

/// Print a failed run as one `<program>: error: <what>` line on stderr and
/// return its exit code (1).  Every bench main ends in a handler calling it,
/// so a job out of attempts never escapes as `terminate called`.
[[nodiscard]] int reportFailure(const char* program,
                                const std::exception& error);

/// The workloads a figure loop covers: the --workload= filter when given,
/// otherwise the full list passed in (kAllBenches / kAllBenchesExtended).
[[nodiscard]] std::vector<BenchId> benchList(
    const Options& options, std::span<const BenchId> all);

/// Baseline (non-ASBR) job spec for one workload under these options.
/// Binaries flip the ASBR fields on copies to build their grids.
[[nodiscard]] SimJob baseJob(const Options& options, BenchId id,
                             std::string predictor, std::string figure);

/// Print a rendered table (and CSV when requested).
void printTable(const Options& options, const TextTable& table);

/// Collects one SimReport per recorded run and writes them as a single
/// `asbr.bench_report` JSON document when the user passed --json=FILE.
/// This is the ONLY path through which bench binaries emit machine-readable
/// results (ci/bench-report.sh and EXPERIMENTS.md build on it).
class ReportSink {
public:
    ReportSink(std::string generator, const Options& options);

    /// Record one finished run.
    void add(const JobResult& result);

    /// Write the document through driver::writeOutput (no-op without
    /// --json; a failed write throws).  Returns the serialized text so
    /// callers/tests can reuse it.
    std::string write() const;

    [[nodiscard]] std::size_t runCount() const { return runs_.size(); }

private:
    std::string generator_;
    Options options_;
    std::vector<SimReport> runs_;
};

/// Shared implementation of Figures 7/9/10: run the three reference
/// predictors, resolve the paper's branch selection through the engine's
/// artifact cache, and print the per-site exec/taken/accuracy table for the
/// selected branches.  Runs are also recorded into `sink` when non-null.
void reportSelectedBranches(SimEngine& engine, const Options& options,
                            BenchId id, const std::string& figureLabel,
                            ReportSink* sink);

}  // namespace asbr::bench
