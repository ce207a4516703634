// asbr.wcet_report — the schema-versioned, machine-readable result of one
// static-timing run (docs/wcet.md).
//
// Serializes the WCET engine's view of a program: the declarative pipeline
// cost model, every natural loop with its iteration bound and bound source,
// the per-branch static misprediction-cost ranking, the baseline and folded
// cycle bounds, and the measured pipeline cycles both bounds are checked
// against.  Every value is an integer, string or bool — no floating point —
// so the report for a fixed (program, seed, samples, threshold) tuple is
// byte-identical across runs and thread counts, and ci/verify-workloads.sh
// can whole-file-diff committed goldens.
#pragma once

#include <set>
#include <string>

#include "analysis/timing/wcet.hpp"
#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kWcetReportSchema = "asbr.wcet_report";

/// Identity of the analyzed program and the measured runs.
struct WcetReportMeta {
    std::string benchmark;        ///< workload token ("adpcm-enc") or file
    std::uint32_t threshold = 3;  ///< fold-distance threshold used
    bool scheduled = true;        ///< condition-scheduling pass enabled
    std::uint64_t seed = 0;       ///< workload input seed
    std::uint64_t samples = 0;    ///< workload input length
};

/// Serialize one static-timing run (schema `asbr.wcet_report`, version 1).
/// `baseline` is compute({}) and `folded` compute(foldedPcs); the measured
/// cycle counts come from pipeline runs without and with the fold set
/// active.  The branch ranking is the *baseline* one (the selection input),
/// with `folded` flags marking membership in `foldedPcs`.
[[nodiscard]] JsonValue wcetReportJson(
    const WcetReportMeta& meta, const analysis::timing::WcetEngine& engine,
    const analysis::timing::WcetResult& baseline,
    const analysis::timing::WcetResult& folded,
    const std::set<std::uint32_t>& foldedPcs,
    std::uint64_t measuredBaselineCycles, std::uint64_t measuredFoldedCycles);

/// The schema's field table (docs/metrics.md) and its validator.
extern const SchemaSpec kWcetReportSpec;
[[nodiscard]] ReportValidation validateWcetReportJson(const JsonValue& doc);

}  // namespace asbr
