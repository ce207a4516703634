#include "report/sampling_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace asbr {

namespace {

/// Scale a ratio to integer parts-per-million — the single rounding point
/// that keeps the report free of floating-point values.
std::uint64_t toMicro(double ratio) {
    return static_cast<std::uint64_t>(std::llround(ratio * 1e6));
}

}  // namespace

JsonValue samplingReportJson(const RunMeta& meta,
                             const SamplingConfig& sampling,
                             const SampledResult& result,
                             const std::optional<SamplingReference>& reference) {
    JsonObject doc;
    doc.emplace_back("schema", kSamplingReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("predictor", meta.predictor);
    m.emplace_back("seed", meta.seed);
    m.emplace_back("samples", meta.samples);
    m.emplace_back("scheduled", meta.scheduled);
    m.emplace_back("asbr", meta.asbr);
    if (meta.asbr) {
        m.emplace_back("bit_entries", meta.bitEntries);
        m.emplace_back("update_stage", meta.updateStage);
    }
    doc.emplace_back("meta", JsonValue(std::move(m)));

    JsonObject s;
    s.emplace_back("warmup", sampling.warmup);
    s.emplace_back("measure", sampling.measure);
    s.emplace_back("skip", sampling.skip);
    doc.emplace_back("sampling", JsonValue(std::move(s)));

    JsonObject totals;
    totals.emplace_back("windows",
                        static_cast<std::uint64_t>(result.windows.size()));
    totals.emplace_back("measured_instructions", result.measuredInstructions);
    totals.emplace_back("measured_cycles", result.measuredCycles);
    totals.emplace_back("fast_forward_instructions",
                        result.fastForwardInstructions);
    totals.emplace_back("total_instructions", result.totalInstructions);
    totals.emplace_back("cond_branches", result.stats.condBranches);
    totals.emplace_back("folded_branches", result.stats.foldedBranches);
    totals.emplace_back("exited", result.exited);
    totals.emplace_back("exit_code",
                        static_cast<std::int64_t>(result.exitCode));
    doc.emplace_back("totals", JsonValue(std::move(totals)));

    // The documented error bound: the CI95 half-width of the window-mean
    // CPI, floored at 1% of the estimate (the floor guards the bound when
    // windows are few or eerily uniform — see docs/simulation.md).
    const std::uint64_t cpiMicro = toMicro(result.cpiEstimate);
    const std::uint64_t ci95Micro = toMicro(result.ci95HalfWidth);
    const std::uint64_t boundMicro = std::max(ci95Micro, cpiMicro / 100);
    JsonObject estimate;
    estimate.emplace_back("cpi_micro", cpiMicro);
    estimate.emplace_back("ci95_half_width_micro", ci95Micro);
    estimate.emplace_back("error_bound_micro", boundMicro);
    estimate.emplace_back("fold_rate_micro", toMicro(result.stats.foldRate()));
    doc.emplace_back("estimate", JsonValue(std::move(estimate)));

    if (reference) {
        const double refCpi =
            reference->committed == 0
                ? 0.0
                : static_cast<double>(reference->cycles) /
                      static_cast<double>(reference->committed);
        const std::uint64_t refCpiMicro = toMicro(refCpi);
        const std::uint64_t absErrorMicro = refCpiMicro > cpiMicro
                                                ? refCpiMicro - cpiMicro
                                                : cpiMicro - refCpiMicro;
        JsonObject ref;
        ref.emplace_back("cycles", reference->cycles);
        ref.emplace_back("committed", reference->committed);
        ref.emplace_back("cpi_micro", refCpiMicro);
        ref.emplace_back("abs_error_micro", absErrorMicro);
        ref.emplace_back("within_bound", absErrorMicro <= boundMicro);
        doc.emplace_back("reference", JsonValue(std::move(ref)));
    }

    JsonArray windows;
    for (const SampleWindow& w : result.windows) {
        JsonObject record;
        record.emplace_back("start_instruction", w.startInstruction);
        record.emplace_back("instructions", w.instructions);
        record.emplace_back("cycles", w.cycles);
        windows.push_back(JsonValue(std::move(record)));
    }
    doc.emplace_back("windows", JsonValue(std::move(windows)));
    return JsonValue(std::move(doc));
}

using enum FieldType;

const SchemaSpec kSamplingReportSpec{
    kSamplingReportSchema, kReportSchemaVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"meta/predictor", kString},
        {"meta/seed", kCount},
        {"meta/samples", kCount},
        {"meta/scheduled", kBool},
        {"meta/asbr", kBool},
        {"meta/bit_entries", kCount, {.optional = true}},
        {"meta/update_stage", kString,
         {.optional = true, .labels = &kValueStageNames}},
        {"sampling", kObject},
        {"sampling/warmup", kCount},
        {"sampling/measure", kCount, {.min = 1}},
        {"sampling/skip", kCount},
        {"totals", kObject},
        {"totals/windows", kCount},
        {"totals/measured_instructions", kCount},
        {"totals/measured_cycles", kCount},
        {"totals/fast_forward_instructions", kCount},
        {"totals/total_instructions", kCount},
        {"totals/cond_branches", kCount},
        {"totals/folded_branches", kCount},
        {"totals/exited", kBool},
        {"totals/exit_code", kInteger},
        {"estimate", kObject},
        {"estimate/cpi_micro", kCount},
        {"estimate/ci95_half_width_micro", kCount},
        {"estimate/error_bound_micro", kCount},
        {"estimate/fold_rate_micro", kCount},
        {"reference", kObject, {.optional = true}},
        {"reference/cycles", kCount},
        {"reference/committed", kCount},
        {"reference/cpi_micro", kCount},
        {"reference/abs_error_micro", kCount},
        {"reference/within_bound", kBool},
        {"windows", kArray},
        {"windows/[]", kObject},
        {"windows/[]/start_instruction", kCount},
        {"windows/[]/instructions", kCount},
        {"windows/[]/cycles", kCount},
    },
    {
        {"meta.bit_entries/update_stage present iff meta.asbr",
         asbrMetaConsistent},
        // The bound is a pure integer function of the estimate and its CI.
        {"error_bound_micro == max(ci95_half_width_micro, cpi_micro/100)",
         [](const JsonValue& d) {
             return countAt(d, "estimate/error_bound_micro") ==
                    std::max(countAt(d, "estimate/ci95_half_width_micro"),
                             countAt(d, "estimate/cpi_micro") / 100);
         }},
        {"reference abs_error_micro/within_bound follow from the CPI fields",
         [](const JsonValue& d) {
             const JsonValue* ref = d.find("reference");
             if (ref == nullptr) return true;
             const std::uint64_t cpi = countAt(d, "estimate/cpi_micro");
             const std::uint64_t refCpi = countAt(*ref, "cpi_micro");
             const std::uint64_t error =
                 refCpi > cpi ? refCpi - cpi : cpi - refCpi;
             return countAt(*ref, "abs_error_micro") == error &&
                    at(*ref, "within_bound").asBool() ==
                        (error <= countAt(d, "estimate/error_bound_micro"));
         }},
        {"totals == the windows array",
         [](const JsonValue& d) {
             const JsonArray& windows = itemsAt(d, "windows");
             return countAt(d, "totals/windows") == windows.size() &&
                    countAt(d, "totals/measured_instructions") ==
                        sumOf(windows, "instructions") &&
                    countAt(d, "totals/measured_cycles") ==
                        sumOf(windows, "cycles");
         }},
        {"windows[].start_instruction strictly increasing",
         [](const JsonValue& d) {
             const JsonArray& windows = itemsAt(d, "windows");
             for (std::size_t i = 1; i < windows.size(); ++i)
                 if (countAt(windows[i], "start_instruction") <=
                     countAt(windows[i - 1], "start_instruction"))
                     return false;
             return true;
         }},
    }};

}  // namespace asbr
