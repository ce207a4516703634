// asbr.sweep_report — the schema-versioned result of one asbr-sweep batch:
// a parameter-grid cross-product of simulation runs executed by the driver
// engine, with an explicit per-cell status.
//
// Version 2 (docs/metrics.md, docs/robustness.md) restructured the document
// around durable execution:
//   * `runs` became `cells`: one object per grid point in submission order,
//     each carrying the engine job key, a `status` ("ok" | "failed"), the
//     attempt count, and either the embedded asbr.sim_report (`report`) or
//     the quarantine reason (`error`).
//   * a `failed_jobs` summary array lists the quarantined cells so graders
//     and CI can grep one place.
//   * the v1 `engine` counter block was dropped: cache hits and jobs-run
//     depend on how much work a resumed journal skipped, and the document
//     must stay byte-identical between a one-shot run and any kill/resume
//     sequence (engine counters still go to stderr).
//
// Like the other report kinds, the document is produced through exactly one
// code path and validated against its field table.  Nothing in the
// document depends on thread count, scheduling or host time, so the same
// sweep serializes byte-identically at --threads=1 and --threads=8 and
// across resume boundaries (the determinism tests diff whole files).
#pragma once

#include <string>
#include <vector>

#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kSweepReportSchema = "asbr.sweep_report";
/// Sweep documents version independently of the base kReportSchemaVersion:
/// v2 introduced cells/failed_jobs (PR 8) without touching other schemas.
inline constexpr std::uint64_t kSweepReportVersion = 2;

/// One grid point of a finished sweep (report-layer mirror of the driver's
/// CellOutcome; the report library stays independent of the driver layer).
struct SweepCell {
    std::string job;        ///< engine job key (stable, fs-safe)
    std::string status;     ///< "ok" | "failed"
    std::uint64_t attempts = 0;
    JsonValue report;       ///< embedded asbr.sim_report ("ok" cells)
    std::string error;      ///< quarantine reason ("failed" cells)
};

/// Serialize a finished sweep (schema `asbr.sweep_report`, version 2).
/// `generator` names the producing binary; `options` is free-form metadata
/// (the CLI options of the producing run).
[[nodiscard]] JsonValue sweepReportJson(const std::string& generator,
                                        JsonValue options,
                                        const std::vector<SweepCell>& cells);

/// The schema's field table (docs/metrics.md); check a document with
/// `validate(doc, kSweepReportSpec)`.
extern const SchemaSpec kSweepReportSpec;

}  // namespace asbr
