// The schema registry lives apart from `validate` so that a binary using
// one report kind does not link every other kind's producer.
#include "report/analysis_report.hpp"
#include "report/fault_report.hpp"
#include "report/ipa_report.hpp"
#include "report/sampling_report.hpp"
#include "report/sweep_report.hpp"
#include "report/wcet_report.hpp"

namespace asbr {

const std::vector<const SchemaSpec*>& reportSchemas() {
    static const std::vector<const SchemaSpec*> all = {
        &kSimReportSpec,      &kBenchReportSpec, &kFaultReportSpec,
        &kAnalysisReportSpec, &kIpaReportSpec,   &kSweepReportSpec,
        &kWcetReportSpec,     &kSamplingReportSpec,
    };
    return all;
}

const SchemaSpec* findSchema(std::string_view id) {
    for (const SchemaSpec* spec : reportSchemas())
        if (spec->id == id) return spec;
    return nullptr;
}

}  // namespace asbr
