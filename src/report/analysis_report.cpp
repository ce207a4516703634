#include "report/analysis_report.hpp"

#include "isa/disasm.hpp"

namespace asbr {

using analysis::BranchDirection;
using analysis::FoldLegality;
using analysis::StaticLint;
using Lint = StaticLint::Kind;

JsonValue analysisReportJson(const AnalysisReportMeta& meta,
                             const analysis::FoldLegalityVerifier& verifier,
                             const analysis::VerifyConfig& config) {
    const analysis::Cfg& cfg = verifier.cfg();
    const analysis::LoopForest& loops = verifier.loops();
    const analysis::ValueAnalysis& va = verifier.values();
    const Program& program = *cfg.program;

    JsonObject doc;
    doc.emplace_back("schema", kAnalysisReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("threshold", static_cast<std::uint64_t>(meta.threshold));
    m.emplace_back("scheduled", meta.scheduled);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    std::uint64_t edges = 0;
    for (const analysis::BasicBlock& b : cfg.blocks) edges += b.succs.size();
    JsonObject shape;
    shape.emplace_back("instructions",
                       static_cast<std::uint64_t>(cfg.numInstructions()));
    shape.emplace_back("blocks", static_cast<std::uint64_t>(cfg.blocks.size()));
    shape.emplace_back("edges", edges);
    shape.emplace_back("call_sites",
                       static_cast<std::uint64_t>(cfg.callSites.size()));
    shape.emplace_back("function_entries",
                       static_cast<std::uint64_t>(cfg.functionEntries.size()));
    shape.emplace_back("unresolved_indirect", cfg.hasUnresolvedIndirect);
    doc.emplace_back("cfg", JsonValue(std::move(shape)));

    std::uint64_t maxDepth = 0;
    for (const analysis::Loop& loop : loops.loops)
        maxDepth = std::max<std::uint64_t>(maxDepth, loop.depth);
    std::uint64_t wideningPoints = 0;
    for (const char w : loops.wideningPoint) wideningPoints += w != 0 ? 1 : 0;
    JsonObject loopsJson;
    loopsJson.emplace_back("count",
                           static_cast<std::uint64_t>(loops.loops.size()));
    loopsJson.emplace_back("max_depth", maxDepth);
    loopsJson.emplace_back("widening_points", wideningPoints);
    doc.emplace_back("loops", JsonValue(std::move(loopsJson)));

    JsonObject fixpoint;
    fixpoint.emplace_back("converged", va.converged);
    fixpoint.emplace_back("iterations",
                          static_cast<std::uint64_t>(va.iterations));
    doc.emplace_back("fixpoint", JsonValue(std::move(fixpoint)));

    // One record per conditional branch, in text order.  Purely static:
    // verdictFor runs without dynamic evidence, so legality here is
    // ProvablySafe or Illegal (SafeOnProfiledPaths needs a profile).
    std::uint64_t always = 0, never = 0, dynamic = 0, unreachable = 0;
    std::uint64_t safe = 0, illegal = 0, refinementWins = 0;
    JsonArray branches;
    for (analysis::InstrIndex i = 0; i < cfg.numInstructions(); ++i) {
        if (!isCondBranch(program.code[i].op)) continue;
        const analysis::BranchVerdict v =
            verifier.verdictFor(cfg.pcOf(i), config, nullptr);
        switch (v.direction) {
            case BranchDirection::kAlwaysTaken: ++always; break;
            case BranchDirection::kNeverTaken: ++never; break;
            case BranchDirection::kDynamic: ++dynamic; break;
            case BranchDirection::kUnreachable: ++unreachable; break;
        }
        if (v.verdict == FoldLegality::kIllegal) ++illegal; else ++safe;
        if (v.unrefinedMinDistance < config.threshold &&
            v.staticMinDistance >= config.threshold)
            ++refinementWins;
        JsonObject b;
        b.emplace_back("pc", static_cast<std::uint64_t>(v.pc));
        b.emplace_back("line", v.sourceLine);
        b.emplace_back("instr", disassemble(program.code[i]));
        b.emplace_back("direction", analysis::branchDirectionName(v.direction));
        b.emplace_back("legality", analysis::foldLegalityName(v.verdict));
        b.emplace_back("static_min_distance",
                       static_cast<std::uint64_t>(v.staticMinDistance));
        b.emplace_back("unrefined_min_distance",
                       static_cast<std::uint64_t>(v.unrefinedMinDistance));
        b.emplace_back("cond_value", va.condAtBranch[i].str());
        b.emplace_back("reachable", v.reachable);
        b.emplace_back("extractable", v.extractable);
        branches.push_back(JsonValue(std::move(b)));
    }

    JsonArray lints;
    for (const StaticLint& lint : verifier.lints(config)) {
        JsonObject l;
        l.emplace_back("kind", analysis::staticLintKindName(lint.kind));
        l.emplace_back("pc", static_cast<std::uint64_t>(lint.pc));
        l.emplace_back("line", lint.sourceLine);
        l.emplace_back("message", lint.message);
        lints.push_back(JsonValue(std::move(l)));
    }

    JsonObject summary;
    summary.emplace_back("branches",
                         static_cast<std::uint64_t>(branches.size()));
    summary.emplace_back("always_taken", always);
    summary.emplace_back("never_taken", never);
    summary.emplace_back("dynamic", dynamic);
    summary.emplace_back("unreachable", unreachable);
    summary.emplace_back("statically_decided", always + never);
    summary.emplace_back("provably_safe", safe);
    summary.emplace_back("illegal", illegal);
    summary.emplace_back("refinement_wins", refinementWins);
    summary.emplace_back("lints", static_cast<std::uint64_t>(lints.size()));
    doc.emplace_back("summary", JsonValue(std::move(summary)));

    doc.emplace_back("branches", JsonValue(std::move(branches)));
    doc.emplace_back("lints", JsonValue(std::move(lints)));
    return JsonValue(std::move(doc));
}

using enum FieldType;

/// Direction labels double as the summary's histogram keys.
const std::vector<std::string> kDirections = labelsOf(
    analysis::branchDirectionName,
    {BranchDirection::kAlwaysTaken, BranchDirection::kNeverTaken,
     BranchDirection::kDynamic, BranchDirection::kUnreachable});
const std::vector<std::string> kLegalities = labelsOf(
    analysis::foldLegalityName,
    {FoldLegality::kProvablySafe, FoldLegality::kSafeOnProfiledPaths,
     FoldLegality::kIllegal});
const std::vector<std::string> kLintKinds = labelsOf(
    analysis::staticLintKindName,
    {Lint::kUnreachableBlock, Lint::kDeadBranchArm, Lint::kRefinementWin,
     Lint::kUnboundedLoop, Lint::kDanglingLoopBound, Lint::kDeadStore,
     Lint::kNeverWrittenRead, Lint::kCorrelatedBranch});

const SchemaSpec kAnalysisReportSpec{
    kAnalysisReportSchema, kReportSchemaVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"meta/threshold", kCount, {.min = 2, .max = 4}},
        {"meta/scheduled", kBool},
        {"cfg", kObject},
        {"cfg/instructions", kCount},
        {"cfg/blocks", kCount},
        {"cfg/edges", kCount},
        {"cfg/call_sites", kCount},
        {"cfg/function_entries", kCount},
        {"cfg/unresolved_indirect", kBool},
        {"loops", kObject},
        {"loops/count", kCount},
        {"loops/max_depth", kCount},
        {"loops/widening_points", kCount},
        {"fixpoint", kObject},
        {"fixpoint/converged", kBool},
        {"fixpoint/iterations", kCount},
        {"summary", kObject},
        {"summary/branches", kCount},
        {"summary/always_taken", kCount},
        {"summary/never_taken", kCount},
        {"summary/dynamic", kCount},
        {"summary/unreachable", kCount},
        {"summary/statically_decided", kCount},
        {"summary/provably_safe", kCount},
        {"summary/illegal", kCount},
        {"summary/refinement_wins", kCount},
        {"summary/lints", kCount},
        {"branches", kArray},
        {"branches/[]", kObject},
        {"branches/[]/pc", kCount},
        {"branches/[]/line", kCount},
        {"branches/[]/instr", kString},
        {"branches/[]/direction", kString, {.labels = &kDirections}},
        {"branches/[]/legality", kString, {.labels = &kLegalities}},
        {"branches/[]/static_min_distance", kCount},
        {"branches/[]/unrefined_min_distance", kCount},
        {"branches/[]/cond_value", kString},
        {"branches/[]/reachable", kBool},
        {"branches/[]/extractable", kBool},
        {"lints", kArray},
        {"lints/[]", kObject},
        {"lints/[]/kind", kString, {.labels = &kLintKinds}},
        {"lints/[]/pc", kCount},
        {"lints/[]/line", kCount},
        {"lints/[]/message", kString},
    },
    {
        {"summary counts == the branch and lint records",
         [](const JsonValue& d) {
             const JsonArray& branches = itemsAt(d, "branches");
             for (const std::string& direction : kDirections)
                 if (countAt(d, "summary/" + direction) !=
                     countLabel(branches, "direction", direction))
                     return false;
             const std::uint64_t illegal = countLabel(
                 branches, "legality",
                 analysis::foldLegalityName(FoldLegality::kIllegal));
             return countAt(d, "summary/branches") == branches.size() &&
                    countAt(d, "summary/statically_decided") ==
                        countAt(d, "summary/always_taken") +
                            countAt(d, "summary/never_taken") &&
                    countAt(d, "summary/illegal") == illegal &&
                    countAt(d, "summary/provably_safe") ==
                        branches.size() - illegal &&
                    countAt(d, "summary/lints") == itemsAt(d, "lints").size();
         }},
    }};

ReportValidation validateAnalysisReportJson(const JsonValue& doc) {
    return validate(doc, kAnalysisReportSpec);
}

}  // namespace asbr
