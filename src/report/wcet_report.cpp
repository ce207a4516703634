#include "report/wcet_report.hpp"

#include <algorithm>

namespace asbr {

namespace {

using analysis::timing::BoundSource;
using analysis::timing::boundSourceName;

JsonValue boundJson(const analysis::timing::WcetResult& result) {
    JsonObject b;
    b.emplace_back("bounded", result.bounded);
    b.emplace_back("cycles", result.cycles);
    b.emplace_back("reason", result.reason);
    return JsonValue(std::move(b));
}

}  // namespace

JsonValue wcetReportJson(const WcetReportMeta& meta,
                         const analysis::timing::WcetEngine& engine,
                         const analysis::timing::WcetResult& baseline,
                         const analysis::timing::WcetResult& folded,
                         const std::set<std::uint32_t>& foldedPcs,
                         std::uint64_t measuredBaselineCycles,
                         std::uint64_t measuredFoldedCycles) {
    JsonObject doc;
    doc.emplace_back("schema", kWcetReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("threshold", static_cast<std::uint64_t>(meta.threshold));
    m.emplace_back("scheduled", meta.scheduled);
    m.emplace_back("seed", meta.seed);
    m.emplace_back("samples", meta.samples);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    const analysis::timing::TimingCostModel& model = engine.model();
    JsonObject cost;
    cost.emplace_back("mul_stall", static_cast<std::uint64_t>(model.mulStall));
    cost.emplace_back("div_stall", static_cast<std::uint64_t>(model.divStall));
    cost.emplace_back("mispredict_penalty",
                      static_cast<std::uint64_t>(model.mispredictPenalty));
    cost.emplace_back("icache_miss_penalty",
                      static_cast<std::uint64_t>(model.icacheMissPenalty));
    cost.emplace_back("dcache_miss_penalty",
                      static_cast<std::uint64_t>(model.dcacheMissPenalty));
    cost.emplace_back("icache_line_bytes",
                      static_cast<std::uint64_t>(model.icacheLineBytes));
    cost.emplace_back("pipeline_fill_cycles",
                      static_cast<std::uint64_t>(model.pipelineFillCycles));
    doc.emplace_back("cost_model", JsonValue(std::move(cost)));

    std::uint64_t annotated = 0, inferred = 0, profiled = 0, unbounded = 0;
    JsonArray loops;
    for (const analysis::timing::LoopRecord& loop : engine.loops()) {
        switch (loop.bound.source) {
            case BoundSource::kAnnotation: ++annotated; break;
            case BoundSource::kInferred: ++inferred; break;
            case BoundSource::kProfile: ++profiled; break;
            case BoundSource::kNone: ++unbounded; break;
        }
        JsonObject l;
        l.emplace_back("head_pc", static_cast<std::uint64_t>(loop.headPc));
        l.emplace_back("line", loop.sourceLine);
        l.emplace_back("depth", static_cast<std::uint64_t>(loop.depth));
        l.emplace_back("bound", loop.bound.iterations);
        l.emplace_back("source",
                       boundSourceName(loop.bound.source));
        l.emplace_back("bounded", loop.bound.bounded());
        loops.push_back(JsonValue(std::move(l)));
    }

    std::uint64_t foldedBranches = 0;
    JsonArray branches;
    for (const analysis::timing::BranchCostRecord& r : baseline.branches) {
        const bool isFolded = foldedPcs.count(r.pc) != 0;
        foldedBranches += isFolded ? 1 : 0;
        JsonObject b;
        b.emplace_back("pc", static_cast<std::uint64_t>(r.pc));
        b.emplace_back("line", r.sourceLine);
        b.emplace_back("exec_bound", r.execBound);
        b.emplace_back("unit_cost", r.unitCost);
        b.emplace_back("total_cost", r.totalCost);
        b.emplace_back("folded", isFolded);
        branches.push_back(JsonValue(std::move(b)));
    }

    JsonObject bounds;
    bounds.emplace_back("baseline", boundJson(baseline));
    bounds.emplace_back("folded", boundJson(folded));
    doc.emplace_back("bounds", JsonValue(std::move(bounds)));

    JsonObject measured;
    measured.emplace_back("baseline_cycles", measuredBaselineCycles);
    measured.emplace_back("folded_cycles", measuredFoldedCycles);
    doc.emplace_back("measured", JsonValue(std::move(measured)));

    JsonObject soundness;
    soundness.emplace_back(
        "baseline_sound",
        baseline.bounded && baseline.cycles >= measuredBaselineCycles);
    soundness.emplace_back(
        "folded_sound", folded.bounded && folded.cycles >= measuredFoldedCycles);
    soundness.emplace_back("folded_tighter",
                           baseline.bounded && folded.bounded &&
                               folded.cycles < baseline.cycles);
    doc.emplace_back("soundness", JsonValue(std::move(soundness)));

    JsonObject summary;
    summary.emplace_back("loops", static_cast<std::uint64_t>(loops.size()));
    summary.emplace_back("loops_annotated", annotated);
    summary.emplace_back("loops_inferred", inferred);
    summary.emplace_back("loops_profiled", profiled);
    summary.emplace_back("loops_unbounded", unbounded);
    summary.emplace_back("branches",
                         static_cast<std::uint64_t>(branches.size()));
    summary.emplace_back("folded_branches", foldedBranches);
    doc.emplace_back("summary", JsonValue(std::move(summary)));

    doc.emplace_back("loops", JsonValue(std::move(loops)));
    doc.emplace_back("branches", JsonValue(std::move(branches)));
    return JsonValue(std::move(doc));
}

using enum FieldType;

const std::vector<std::string> kBoundSources = labelsOf(
    boundSourceName, {BoundSource::kAnnotation, BoundSource::kInferred,
                      BoundSource::kProfile, BoundSource::kNone});

const SchemaSpec kWcetReportSpec{
    kWcetReportSchema, kReportSchemaVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"meta/threshold", kCount, {.min = 2, .max = 4}},
        {"meta/scheduled", kBool},
        {"meta/seed", kCount},
        {"meta/samples", kCount},
        {"cost_model", kObject},
        {"cost_model/mul_stall", kCount},
        {"cost_model/div_stall", kCount},
        {"cost_model/mispredict_penalty", kCount},
        {"cost_model/icache_miss_penalty", kCount},
        {"cost_model/dcache_miss_penalty", kCount},
        {"cost_model/icache_line_bytes", kCount},
        {"cost_model/pipeline_fill_cycles", kCount},
        {"bounds", kObject},
        {"bounds/baseline", kObject},
        {"bounds/folded", kObject},
        {"bounds/*", kObject},
        {"bounds/*/bounded", kBool},
        {"bounds/*/cycles", kCount},
        {"bounds/*/reason", kString},
        {"measured", kObject},
        {"measured/baseline_cycles", kCount},
        {"measured/folded_cycles", kCount},
        {"soundness", kObject},
        {"soundness/baseline_sound", kBool},
        {"soundness/folded_sound", kBool},
        {"soundness/folded_tighter", kBool},
        {"summary", kObject},
        {"summary/loops", kCount},
        {"summary/loops_annotated", kCount},
        {"summary/loops_inferred", kCount},
        {"summary/loops_profiled", kCount},
        {"summary/loops_unbounded", kCount},
        {"summary/branches", kCount},
        {"summary/folded_branches", kCount},
        {"loops", kArray},
        {"loops/[]", kObject},
        {"loops/[]/head_pc", kCount},
        {"loops/[]/line", kCount},
        {"loops/[]/depth", kCount},
        {"loops/[]/bound", kCount},
        {"loops/[]/source", kString, {.labels = &kBoundSources}},
        {"loops/[]/bounded", kBool},
        {"branches", kArray},
        {"branches/[]", kObject},
        {"branches/[]/pc", kCount},
        {"branches/[]/line", kCount},
        {"branches/[]/exec_bound", kCount},
        {"branches/[]/unit_cost", kCount},
        {"branches/[]/total_cost", kCount},
        {"branches/[]/folded", kBool},
    },
    {
        {"soundness flags == recomputed from bounds and measured",
         [](const JsonValue& d) {
             const bool base = at(d, "bounds/baseline/bounded").asBool();
             const bool fold = at(d, "bounds/folded/bounded").asBool();
             const std::uint64_t baseCycles =
                 countAt(d, "bounds/baseline/cycles");
             const std::uint64_t foldCycles =
                 countAt(d, "bounds/folded/cycles");
             return at(d, "soundness/baseline_sound").asBool() ==
                        (base && baseCycles >=
                                     countAt(d, "measured/baseline_cycles")) &&
                    at(d, "soundness/folded_sound").asBool() ==
                        (fold && foldCycles >=
                                     countAt(d, "measured/folded_cycles")) &&
                    at(d, "soundness/folded_tighter").asBool() ==
                        (base && fold && foldCycles < baseCycles);
         }},
        // LoopBound::bounded(): some source supplied the bound.
        {"loops[].bounded == (loops[].source != \"none\")",
         [](const JsonValue& d) {
             for (const JsonValue& loop : itemsAt(d, "loops"))
                 if (at(loop, "bounded").asBool() ==
                     (at(loop, "source").asString() ==
                      boundSourceName(BoundSource::kNone)))
                     return false;
             return true;
         }},
        {"summary counts == the loop sources and branch records",
         [](const JsonValue& d) {
             const JsonArray& loops = itemsAt(d, "loops");
             const JsonArray& branches = itemsAt(d, "branches");
             const auto sourced = [&](BoundSource source) {
                 return countLabel(loops, "source", boundSourceName(source));
             };
             return countAt(d, "summary/loops") == loops.size() &&
                    countAt(d, "summary/loops_annotated") ==
                        sourced(BoundSource::kAnnotation) &&
                    countAt(d, "summary/loops_inferred") ==
                        sourced(BoundSource::kInferred) &&
                    countAt(d, "summary/loops_profiled") ==
                        sourced(BoundSource::kProfile) &&
                    countAt(d, "summary/loops_unbounded") ==
                        sourced(BoundSource::kNone) &&
                    countAt(d, "summary/branches") == branches.size() &&
                    countAt(d, "summary/folded_branches") ==
                        static_cast<std::uint64_t>(std::count_if(
                            branches.begin(), branches.end(),
                            [](const JsonValue& b) {
                                return at(b, "folded").asBool();
                            }));
         }},
        {"branches[].total_cost non-increasing",
         [](const JsonValue& d) {
             const JsonArray& branches = itemsAt(d, "branches");
             for (std::size_t i = 1; i < branches.size(); ++i)
                 if (countAt(branches[i], "total_cost") >
                     countAt(branches[i - 1], "total_cost"))
                     return false;
             return true;
         }},
    }};

}  // namespace asbr
