// SimReport — the schema-versioned, machine-readable result of one
// cycle-accurate simulation run.
//
// Every bench binary, the asbr-stats CLI and ci/bench-report.sh produce
// their JSON artifacts through this one code path, so EXPERIMENTS.md tables
// can be regenerated and diffed mechanically instead of scraping printf
// output.  docs/metrics.md documents the JSON schema; the field tables here
// are the executable form of that document and are checked both in tests
// and on every CI-produced artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report/schema.hpp"
#include "sim/pipeline.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace asbr {

class AsbrUnit;
class BranchPredictor;

/// Schema identifiers embedded in every exported document.
inline constexpr const char* kSimReportSchema = "asbr.sim_report";
inline constexpr const char* kBenchReportSchema = "asbr.bench_report";
inline constexpr std::uint64_t kReportSchemaVersion = 1;

/// Human-readable name of a BDT update stage ("ex_end"/"mem_end"/"commit").
[[nodiscard]] const char* valueStageName(ValueStage stage);
/// Every valueStageName, as a FieldCheck label set.
extern const std::vector<std::string> kValueStageNames;

/// Identity of one run: what executed, under which predictor/ASBR setup.
struct RunMeta {
    std::string benchmark;     ///< display name ("ADPCM Encode", "custom", ...)
    std::string predictor;     ///< BranchPredictor::name()
    /// PredictorRegistry token that reconstructs the predictor exactly
    /// (BranchPredictor::token(); omitted from JSON when empty).
    std::string predictorToken;
    std::string figure;        ///< paper context ("fig6", "fig11", "") — free-form
    std::uint64_t seed = 0;    ///< input-generator seed (0 = n/a)
    std::uint64_t samples = 0; ///< input sample count (0 = n/a)
    bool scheduled = true;     ///< condition-scheduling pass enabled
    bool asbr = false;         ///< an AsbrUnit was installed
    std::uint64_t bitEntries = 0;  ///< BIT capacity when asbr
    std::string updateStage;       ///< valueStageName(...) when asbr
    bool predictorAware = false;   ///< predictor-aware fold selection (asbr)
};

/// One run's full result: meta + the metric registry all components
/// published into + the derived ratios the paper's figures report.
struct SimReport {
    RunMeta meta;
    MetricRegistry registry;
    double cpi = 0.0;
    double predictorAccuracy = 0.0;
    double resolutionAccuracy = 0.0;
    double foldRate = 0.0;
    double branchFraction = 0.0;
    double icacheMissRate = 0.0;
    double dcacheMissRate = 0.0;
};

/// Build a report from a finished run.  `predictor` and `unit` contribute
/// their `bp.*` / `asbr.*` metrics when non-null.
[[nodiscard]] SimReport makeSimReport(RunMeta meta, const PipelineStats& stats,
                                      const BranchPredictor* predictor,
                                      const AsbrUnit* unit = nullptr);

/// JSON form of one report (schema `asbr.sim_report`, docs/metrics.md).
[[nodiscard]] JsonValue simReportJson(const SimReport& report);

/// Wrap a set of run reports into one `asbr.bench_report` document.
/// `generator` names the producing binary; `options` is free-form metadata
/// (CLI options of the producing run).
[[nodiscard]] JsonValue benchReportJson(const std::string& generator,
                                        JsonValue options,
                                        const std::vector<SimReport>& runs);

/// Invariant of the run-meta block sim and sampling reports share:
/// bit_entries and update_stage are present exactly when `asbr` is true.
[[nodiscard]] bool asbrMetaConsistent(const JsonValue& doc);

/// The two schemas' field tables (docs/metrics.md) and their validators.
extern const SchemaSpec kSimReportSpec;
extern const SchemaSpec kBenchReportSpec;
[[nodiscard]] ReportValidation validateSimReportJson(const JsonValue& doc);
[[nodiscard]] ReportValidation validateBenchReportJson(const JsonValue& doc);

}  // namespace asbr
