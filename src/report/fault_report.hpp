// asbr.fault_report — the schema-versioned, machine-readable result of one
// fault-injection campaign (docs/fault-injection.md).
//
// Like asbr.sim_report, the document is produced through exactly one code
// path (here) and validated against its field table on every CI artifact.
// Every value is an integer, string or bool — no floating point — so a
// pinned-seed campaign serializes bit-identically across runs and
// ci/faults.sh can diff whole files against committed goldens.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kFaultReportSchema = "asbr.fault_report";
/// Fault documents version independently of the base kReportSchemaVersion:
/// v2 added the `failed_jobs` quarantine section (PR 8).
inline constexpr std::uint64_t kFaultReportVersion = 2;

/// Identity of the campaign's workload/hardware configuration.  The string
/// fields use the asbr-faults CLI tokens (e.g. benchmark "adpcm-enc",
/// predictor "bimodal") so `asbr-faults replay` can rebuild the exact run
/// from the report alone.
struct FaultReportMeta {
    std::string benchmark;
    std::string predictor;
    std::uint64_t seed = 0;     ///< input-generator seed
    std::uint64_t samples = 0;  ///< input sample count
    bool protectedMode = false; ///< AsbrConfig::parityProtected
    std::uint64_t bitEntries = 0;
    std::string updateStage;    ///< valueStageName(...)
};

/// Serialize a finished campaign (schema `asbr.fault_report`, version 2).
/// `failed` lists injections the durable engine quarantined (empty for an
/// all-green campaign — the section is always present in the document).
[[nodiscard]] JsonValue faultReportJson(
    const FaultReportMeta& meta, const CampaignConfig& config,
    const CampaignResult& result,
    const std::vector<FailedInjection>& failed = {});

/// The schema's field table (docs/metrics.md) and its validator.
extern const SchemaSpec kFaultReportSpec;
[[nodiscard]] ReportValidation validateFaultReportJson(const JsonValue& doc);

/// Inverse of faultOutcomeName (nullopt for an unknown label).
[[nodiscard]] std::optional<FaultOutcome> faultOutcomeFromName(
    const std::string& name);

/// JSON round-trip for one injection record — the same object shape the
/// report's `injections` array uses.  The durable engine stores these as
/// per-injection journal artifacts; fromJson throws EnsureError on a
/// malformed document.
[[nodiscard]] JsonValue injectionRecordJson(const InjectionRecord& record);
[[nodiscard]] InjectionRecord injectionRecordFromJson(const JsonValue& value);

}  // namespace asbr
