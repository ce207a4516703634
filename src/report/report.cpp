#include "report/report.hpp"

#include <cstdio>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"

namespace asbr {

const char* valueStageName(ValueStage stage) {
    switch (stage) {
        case ValueStage::kExEnd: return "ex_end";
        case ValueStage::kMemEnd: return "mem_end";
        case ValueStage::kCommit: return "commit";
    }
    return "?";
}

SimReport makeSimReport(RunMeta meta, const PipelineStats& stats,
                        const BranchPredictor* predictor,
                        const AsbrUnit* unit) {
    SimReport report;
    report.meta = std::move(meta);
    stats.publish(report.registry);
    if (predictor != nullptr) predictor->publishMetrics(report.registry);
    if (unit != nullptr) unit->publishMetrics(report.registry);
    report.cpi = stats.cpi();
    report.predictorAccuracy = stats.predictorAccuracy();
    report.resolutionAccuracy = stats.resolutionAccuracy();
    report.foldRate = stats.foldRate();
    report.branchFraction = stats.branchFraction();
    report.icacheMissRate = stats.icache.missRate();
    report.dcacheMissRate = stats.dcache.missRate();
    return report;
}

namespace {

std::string pcKey(std::uint32_t pc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pc);
    return buf;
}

JsonValue metaJson(const RunMeta& meta) {
    JsonObject out;
    out.emplace_back("benchmark", meta.benchmark);
    out.emplace_back("predictor", meta.predictor);
    if (!meta.predictorToken.empty())
        out.emplace_back("predictor_token", meta.predictorToken);
    if (!meta.figure.empty()) out.emplace_back("figure", meta.figure);
    out.emplace_back("seed", meta.seed);
    out.emplace_back("samples", meta.samples);
    out.emplace_back("scheduled", meta.scheduled);
    out.emplace_back("asbr", meta.asbr);
    if (meta.asbr) {
        out.emplace_back("bit_entries", meta.bitEntries);
        out.emplace_back("update_stage", meta.updateStage);
        if (meta.predictorAware) out.emplace_back("predictor_aware", true);
    }
    return JsonValue(std::move(out));
}

}  // namespace

JsonValue simReportJson(const SimReport& report) {
    JsonObject doc;
    doc.emplace_back("schema", kSimReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);
    doc.emplace_back("meta", metaJson(report.meta));

    JsonObject counters;
    for (const auto& [name, counter] : report.registry.counters())
        counters.emplace_back(name, counter.value());
    doc.emplace_back("counters", JsonValue(std::move(counters)));

    JsonObject derived;
    derived.emplace_back("cpi", report.cpi);
    derived.emplace_back("predictor_accuracy", report.predictorAccuracy);
    derived.emplace_back("resolution_accuracy", report.resolutionAccuracy);
    derived.emplace_back("fold_rate", report.foldRate);
    derived.emplace_back("branch_fraction", report.branchFraction);
    derived.emplace_back("icache_miss_rate", report.icacheMissRate);
    derived.emplace_back("dcache_miss_rate", report.dcacheMissRate);
    doc.emplace_back("derived", JsonValue(std::move(derived)));

    JsonObject histograms;
    for (const auto& [name, histogram] : report.registry.histograms()) {
        JsonObject h;
        JsonArray bounds;
        for (const double b : histogram.bounds()) bounds.emplace_back(b);
        JsonArray counts;
        for (const std::uint64_t c : histogram.counts()) counts.emplace_back(c);
        h.emplace_back("bounds", JsonValue(std::move(bounds)));
        h.emplace_back("counts", JsonValue(std::move(counts)));
        h.emplace_back("total", histogram.total());
        h.emplace_back("sum", histogram.sum());
        h.emplace_back("min", histogram.min());
        h.emplace_back("max", histogram.max());
        histograms.emplace_back(name, JsonValue(std::move(h)));
    }
    doc.emplace_back("histograms", JsonValue(std::move(histograms)));

    JsonObject sites;
    for (const auto& [name, table] : report.registry.siteTables()) {
        JsonObject perPc;
        for (const auto& [pc, value] : table.values())
            perPc.emplace_back(pcKey(pc), value);
        sites.emplace_back(name, JsonValue(std::move(perPc)));
    }
    doc.emplace_back("sites", JsonValue(std::move(sites)));

    return JsonValue(std::move(doc));
}

JsonValue benchReportJson(const std::string& generator, JsonValue options,
                          const std::vector<SimReport>& runs) {
    JsonObject doc;
    doc.emplace_back("schema", kBenchReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);
    doc.emplace_back("generator", generator);
    doc.emplace_back("options", std::move(options));
    JsonArray runArray;
    runArray.reserve(runs.size());
    for (const SimReport& run : runs) runArray.push_back(simReportJson(run));
    doc.emplace_back("runs", JsonValue(std::move(runArray)));
    return JsonValue(std::move(doc));
}

// ------------------------------------------------------------ validation ----

using enum FieldType;

const std::vector<std::string> kValueStageNames = labelsOf(
    valueStageName,
    {ValueStage::kExEnd, ValueStage::kMemEnd, ValueStage::kCommit});

bool asbrMetaConsistent(const JsonValue& d) {
    const JsonValue& meta = at(d, "meta");
    const bool asbr = meta.find("asbr")->asBool();
    return (meta.find("bit_entries") != nullptr) == asbr &&
           (meta.find("update_stage") != nullptr) == asbr &&
           (meta.find("predictor_aware") == nullptr || asbr);
}

// The counters required here are the ones the Fig. 6 (cycles/CPI/accuracy/
// mispredicts) and Fig. 11 (cycles/folds/activity/storage) tables are
// generated from.
const SchemaSpec kSimReportSpec{
    kSimReportSchema, kReportSchemaVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"meta/predictor", kString},
        {"meta/predictor_token", kString, {.optional = true}},
        {"meta/figure", kString, {.optional = true}},
        {"meta/seed", kCount},
        {"meta/samples", kCount},
        {"meta/scheduled", kBool},
        {"meta/asbr", kBool},
        {"meta/bit_entries", kCount, {.optional = true}},
        {"meta/update_stage", kString,
         {.optional = true, .labels = &kValueStageNames}},
        {"meta/predictor_aware", kBool, {.optional = true}},
        {"counters", kObject},
        {"counters/*", kCount},
        {"counters/pipeline.cycles", kCount},
        {"counters/pipeline.committed", kCount},
        {"counters/pipeline.fetched", kCount},
        {"counters/pipeline.cond_branches", kCount},
        {"counters/pipeline.folded_branches", kCount},
        {"counters/pipeline.predicted_branches", kCount},
        {"counters/pipeline.predicted_correct", kCount},
        {"counters/pipeline.mispredicts", kCount},
        {"counters/mem.icache.accesses", kCount},
        {"counters/mem.icache.misses", kCount},
        {"counters/mem.dcache.accesses", kCount},
        {"counters/mem.dcache.misses", kCount},
        {"derived", kObject},
        {"derived/cpi", kNumber},
        {"derived/predictor_accuracy", kNumber, {.max = 1}},
        {"derived/resolution_accuracy", kNumber, {.max = 1}},
        {"derived/fold_rate", kNumber, {.max = 1}},
        {"derived/branch_fraction", kNumber, {.max = 1}},
        {"derived/icache_miss_rate", kNumber, {.max = 1}},
        {"derived/dcache_miss_rate", kNumber, {.max = 1}},
        {"histograms", kObject},
        {"histograms/*", kObject},
        {"histograms/*/bounds", kArray},
        {"histograms/*/bounds/[]", kNumber},
        {"histograms/*/counts", kArray},
        {"histograms/*/counts/[]", kCount},
        {"histograms/*/total", kCount},
        {"histograms/*/sum", kNumber},
        {"histograms/*/min", kNumber},
        {"histograms/*/max", kNumber},
        {"sites", kObject},
        {"sites/*", kObject},
        {"sites/*/*", kCount},
    },
    {
        {"folded_branches + predicted_branches == cond_branches",
         [](const JsonValue& d) {
             return countAt(d, "counters/pipeline.folded_branches") +
                        countAt(d, "counters/pipeline.predicted_branches") ==
                    countAt(d, "counters/pipeline.cond_branches");
         }},
        {"histogram counts.size == bounds.size + 1",
         [](const JsonValue& d) {
             for (const auto& [name, h] : at(d, "histograms").asObject())
                 if (itemsAt(h, "counts").size() !=
                     itemsAt(h, "bounds").size() + 1)
                     return false;
             return true;
         }},
        {"meta.bit_entries/update_stage present iff meta.asbr",
         asbrMetaConsistent},
    }};

const SchemaSpec kBenchReportSpec{
    kBenchReportSchema, kReportSchemaVersion,
    {
        {"generator", kString},
        {"options", kObject},
        {"runs", kArray, {.min = 1}},
        {"runs/[]", kObject, {.nested = &kSimReportSpec}},
    }};

ReportValidation validateSimReportJson(const JsonValue& doc) {
    return validate(doc, kSimReportSpec);
}

ReportValidation validateBenchReportJson(const JsonValue& doc) {
    return validate(doc, kBenchReportSpec);
}

}  // namespace asbr
