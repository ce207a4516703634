// asbr.ipa_report — the schema-versioned, machine-readable result of one
// interprocedural-analysis run (docs/static-analysis.md).
//
// Serializes the ipa pipeline's whole-program view: SSA/SCCP pipeline
// statistics, the value-set resolution of every indirect jump (with the
// proved target sets), the call graph with its bottom-up per-function
// summaries (clobber masks, return-value intervals, WCET bounds), and the
// resolution-aware whole-program WCET.  Every value is an integer, string
// or bool — no floating point — so the report for a fixed program is
// byte-identical across runs and thread counts, and ci/verify-workloads.sh
// can whole-file-diff committed goldens.
#pragma once

#include <string>

#include "analysis/verify.hpp"
#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kIpaReportSchema = "asbr.ipa_report";

/// Identity of the analyzed program.
struct IpaReportMeta {
    std::string benchmark;  ///< workload token ("adpcm-enc") or file name
};

/// Serialize the verifier's interprocedural pipeline outputs (schema
/// `asbr.ipa_report`, version 1).  Purely static — the document depends on
/// the program alone.  The per-function and whole-program WCET bounds are
/// computed with the default cost model and no profile, so profile-only
/// loops report unbounded here.
[[nodiscard]] JsonValue ipaReportJson(
    const IpaReportMeta& meta, const analysis::FoldLegalityVerifier& verifier);

/// The schema's field table (docs/metrics.md); check a document with
/// `validate(doc, kIpaReportSpec)`.
extern const SchemaSpec kIpaReportSpec;

}  // namespace asbr
