#include "report/fault_report.hpp"

namespace asbr {

namespace {

using enum FieldType;

void parseSite(const JsonValue& site) { (void)faultSiteFromJson(site); }

const std::vector<std::string> kOutcomeNames = [] {
    std::vector<std::string> out;
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        out.emplace_back(faultOutcomeName(static_cast<FaultOutcome>(o)));
    return out;
}();

/// One injection record, as the report embeds it and the durable engine
/// journals it.
const SchemaSpec kInjectionRecordSpec{
    "injection_record", 0,
    {
        {"site", kObject, {.parse = parseSite}},
        {"cycle", kCount},
        {"outcome", kString, {.labels = &kOutcomeNames}},
        {"cycles", kCount},
        {"recoveries", kCount},
        {"detail", kString, {.optional = true}},
    }};

}  // namespace

JsonValue injectionRecordJson(const InjectionRecord& record) {
    JsonObject r;
    r.emplace_back("site", faultSiteJson(record.injection.site));
    r.emplace_back("cycle", record.injection.cycle);
    r.emplace_back("outcome", faultOutcomeName(record.outcome));
    r.emplace_back("cycles", record.cycles);
    r.emplace_back("recoveries", record.recoveries);
    if (!record.detail.empty()) r.emplace_back("detail", record.detail);
    return JsonValue(std::move(r));
}

InjectionRecord injectionRecordFromJson(const JsonValue& value) {
    const ReportValidation validation = validate(value, kInjectionRecordSpec);
    ASBR_ENSURE(validation.ok(), validation.errors.front());
    InjectionRecord record;
    record.injection.site = faultSiteFromJson(at(value, "site"));
    record.injection.cycle = countAt(value, "cycle");
    record.cycles = countAt(value, "cycles");
    record.recoveries = countAt(value, "recoveries");
    record.outcome = *faultOutcomeFromName(at(value, "outcome").asString());
    if (const JsonValue* detail = value.find("detail"))
        record.detail = detail->asString();
    return record;
}

JsonValue faultReportJson(const FaultReportMeta& meta,
                          const CampaignConfig& config,
                          const CampaignResult& result,
                          const std::vector<FailedInjection>& failed) {
    JsonObject doc;
    doc.emplace_back("schema", kFaultReportSchema);
    doc.emplace_back("version", kFaultReportVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("predictor", meta.predictor);
    m.emplace_back("seed", meta.seed);
    m.emplace_back("samples", meta.samples);
    m.emplace_back("protected", meta.protectedMode);
    m.emplace_back("bit_entries", meta.bitEntries);
    m.emplace_back("update_stage", meta.updateStage);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    JsonObject campaign;
    campaign.emplace_back("fault_seed", config.seed);
    campaign.emplace_back("injections", config.injections);
    campaign.emplace_back("max_cycle_factor", config.maxCycleFactor);
    JsonObject targets;
    targets.emplace_back("bdt", config.faultBdt);
    targets.emplace_back("bit", config.faultBit);
    targets.emplace_back("bp", config.faultBp);
    campaign.emplace_back("targets", JsonValue(std::move(targets)));
    campaign.emplace_back("clean_cycles", result.context.cleanCycles);
    doc.emplace_back("campaign", JsonValue(std::move(campaign)));

    JsonObject outcomes;
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        outcomes.emplace_back(faultOutcomeName(static_cast<FaultOutcome>(o)),
                              result.outcomes[o]);
    doc.emplace_back("outcomes", JsonValue(std::move(outcomes)));

    JsonArray injections;
    injections.reserve(result.records.size());
    for (const InjectionRecord& record : result.records)
        injections.push_back(injectionRecordJson(record));
    doc.emplace_back("injections", JsonValue(std::move(injections)));

    JsonArray failedJobs;
    failedJobs.reserve(failed.size());
    for (const FailedInjection& f : failed) {
        JsonObject r;
        r.emplace_back("index", f.index);
        r.emplace_back("site", faultSiteJson(f.injection.site));
        r.emplace_back("cycle", f.injection.cycle);
        r.emplace_back("attempts", f.attempts);
        r.emplace_back("error", f.error);
        failedJobs.push_back(JsonValue(std::move(r)));
    }
    doc.emplace_back("failed_jobs", JsonValue(std::move(failedJobs)));

    return JsonValue(std::move(doc));
}

std::optional<FaultOutcome> faultOutcomeFromName(const std::string& name) {
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        if (name == faultOutcomeName(static_cast<FaultOutcome>(o)))
            return static_cast<FaultOutcome>(o);
    return std::nullopt;
}

const SchemaSpec kFaultReportSpec{
    kFaultReportSchema, kFaultReportVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"meta/predictor", kString},
        {"meta/seed", kCount},
        {"meta/samples", kCount},
        {"meta/protected", kBool},
        {"meta/bit_entries", kCount},
        {"meta/update_stage", kString, {.labels = &kValueStageNames}},
        {"campaign", kObject},
        {"campaign/fault_seed", kCount},
        {"campaign/injections", kCount},
        {"campaign/max_cycle_factor", kCount},
        {"campaign/targets", kObject},
        {"campaign/targets/bdt", kBool},
        {"campaign/targets/bit", kBool},
        {"campaign/targets/bp", kBool},
        {"campaign/clean_cycles", kCount},
        {"outcomes", kObject},
        {"outcomes/masked", kCount},
        {"outcomes/detected_recovered", kCount},
        {"outcomes/detected_aborted", kCount},
        {"outcomes/sdc", kCount},
        {"outcomes/hang", kCount},
        {"injections", kArray},
        {"injections/[]", kObject, {.nested = &kInjectionRecordSpec}},
        {"failed_jobs", kArray},
        {"failed_jobs/[]", kObject},
        {"failed_jobs/[]/index", kCount},
        {"failed_jobs/[]/site", kObject, {.parse = parseSite}},
        {"failed_jobs/[]/cycle", kCount},
        {"failed_jobs/[]/attempts", kCount},
        {"failed_jobs/[]/error", kString},
    },
    {
        {"outcomes == per-outcome counts of the injection records",
         [](const JsonValue& d) {
             for (const std::string& name : kOutcomeNames)
                 if (countAt(d, "outcomes/" + name) !=
                     countLabel(itemsAt(d, "injections"), "outcome", name))
                     return false;
             return true;
         }},
        // Reports are only written for complete (possibly degraded)
        // campaigns, never for interrupted ones.
        {"len(injections) + len(failed_jobs) == campaign.injections",
         [](const JsonValue& d) {
             return itemsAt(d, "injections").size() +
                        itemsAt(d, "failed_jobs").size() ==
                    countAt(d, "campaign/injections");
         }},
    }};

ReportValidation validateFaultReportJson(const JsonValue& doc) {
    return validate(doc, kFaultReportSpec);
}

}  // namespace asbr
