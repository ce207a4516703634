// asbr.sampling_report — the schema-versioned, machine-readable result of
// one sampled simulation run (docs/simulation.md).
//
// Serializes the window geometry, every measured window, the CPI ratio
// estimate with its documented error bound (the 95% confidence half-width of
// the per-window CPI mean, floored at 1% of the estimate), and — when the
// producing run also executed the full cycle-accurate reference — the true
// CPI with the achieved error.  Every value is an integer, string or bool
// (ratios are scaled to parts-per-million and rounded once, at production
// time), so the report for a fixed (program, seed, samples, window) tuple is
// byte-identical across runs and thread counts and CI can whole-file-diff
// committed goldens.
#pragma once

#include <optional>

#include "report/report.hpp"
#include "sim/sampling.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kSamplingReportSchema = "asbr.sampling_report";

/// Full-run reference the sampled estimate is checked against.
struct SamplingReference {
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
};

/// Serialize one sampled run (schema `asbr.sampling_report`, version 1).
[[nodiscard]] JsonValue samplingReportJson(
    const RunMeta& meta, const SamplingConfig& sampling,
    const SampledResult& result,
    const std::optional<SamplingReference>& reference = std::nullopt);

/// The schema's field table (docs/metrics.md); check a document with
/// `validate(doc, kSamplingReportSpec)`.
extern const SchemaSpec kSamplingReportSpec;

}  // namespace asbr
