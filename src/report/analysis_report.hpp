// asbr.analysis_report — the schema-versioned, machine-readable result of
// one static-analysis run (docs/static-analysis.md).
//
// Serializes the fold-legality verifier's full static view of a program:
// CFG shape, loop forest, abstract-interpretation fixpoint status, the
// per-branch direction/legality verdicts, and the value-analysis lints.
// Every value is an integer, string or bool — no floating point — so the
// report for a fixed program is byte-identical across runs and
// ci/verify-workloads.sh can whole-file-diff committed goldens.
#pragma once

#include <string>

#include "analysis/verify.hpp"
#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kAnalysisReportSchema = "asbr.analysis_report";

/// Identity of the analyzed program.
struct AnalysisReportMeta {
    std::string benchmark;   ///< workload token ("adpcm-enc") or file name
    std::uint32_t threshold = 3;  ///< fold-distance threshold used
    bool scheduled = true;        ///< condition-scheduling pass enabled
};

/// Serialize a verifier's analysis of every conditional branch in the
/// program (schema `asbr.analysis_report`, version 1).  Purely static: no
/// profile is consulted, so the document depends on the program alone.
[[nodiscard]] JsonValue analysisReportJson(
    const AnalysisReportMeta& meta,
    const analysis::FoldLegalityVerifier& verifier,
    const analysis::VerifyConfig& config);

/// The schema's field table (docs/metrics.md); check a document with
/// `validate(doc, kAnalysisReportSpec)`.
extern const SchemaSpec kAnalysisReportSpec;

}  // namespace asbr
