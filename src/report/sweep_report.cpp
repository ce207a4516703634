#include "report/sweep_report.hpp"

namespace asbr {

JsonValue sweepReportJson(const std::string& generator, JsonValue options,
                          const std::vector<SweepCell>& cells) {
    JsonObject doc;
    doc.emplace_back("schema", kSweepReportSchema);
    doc.emplace_back("version", kSweepReportVersion);
    doc.emplace_back("generator", generator);
    doc.emplace_back("options", std::move(options));

    JsonArray cellArray;
    cellArray.reserve(cells.size());
    JsonArray failedArray;
    for (const SweepCell& cell : cells) {
        JsonObject c;
        c.emplace_back("job", cell.job);
        c.emplace_back("status", cell.status);
        c.emplace_back("attempts", cell.attempts);
        if (cell.status == "ok") {
            c.emplace_back("report", cell.report);
        } else {
            c.emplace_back("error", cell.error);
            JsonObject f;
            f.emplace_back("job", cell.job);
            f.emplace_back("attempts", cell.attempts);
            f.emplace_back("error", cell.error);
            failedArray.push_back(JsonValue(std::move(f)));
        }
        cellArray.push_back(JsonValue(std::move(c)));
    }
    doc.emplace_back("cells", JsonValue(std::move(cellArray)));
    doc.emplace_back("failed_jobs", JsonValue(std::move(failedArray)));
    return JsonValue(std::move(doc));
}

using enum FieldType;

const std::vector<std::string> kCellStatuses = {"ok", "failed"};

const SchemaSpec kSweepReportSpec{
    kSweepReportSchema, kSweepReportVersion,
    {
        {"generator", kString},
        {"options", kObject},
        {"cells", kArray, {.min = 1}},
        {"cells/[]", kObject},
        {"cells/[]/job", kString},
        {"cells/[]/status", kString, {.labels = &kCellStatuses}},
        {"cells/[]/attempts", kCount},
        {"cells/[]/report", kObject,
         {.optional = true, .nested = &kSimReportSpec}},
        {"cells/[]/error", kString, {.optional = true}},
        {"failed_jobs", kArray},
        {"failed_jobs/[]", kObject},
        {"failed_jobs/[]/job", kString},
        {"failed_jobs/[]/attempts", kCount},
        {"failed_jobs/[]/error", kString},
    },
    {
        {"ok cells carry a report, failed cells an error",
         [](const JsonValue& d) {
             for (const JsonValue& cell : itemsAt(d, "cells")) {
                 const bool ok = at(cell, "status").asString() == "ok";
                 if ((cell.find("report") != nullptr) != ok ||
                     (cell.find("error") != nullptr) == ok)
                     return false;
             }
             return true;
         }},
        {"len(failed_jobs) == the number of failed cells",
         [](const JsonValue& d) {
             return itemsAt(d, "failed_jobs").size() ==
                    countLabel(itemsAt(d, "cells"), "status", "failed");
         }},
    }};

}  // namespace asbr
