#include "report/ipa_report.hpp"

#include <bit>

#include "analysis/timing/wcet.hpp"

namespace asbr {

namespace {

using analysis::InstrIndex;
using analysis::ipa::CallGraph;
using analysis::ipa::FunctionSummary;
using analysis::ipa::IpaAnalysis;

/// First label naming `pc`, or "" — symbols is an ordered map, so the
/// choice is deterministic.
std::string symbolAt(const Program& program, std::uint32_t pc) {
    for (const auto& [name, addr] : program.symbols)
        if (addr == pc) return name;
    return {};
}

JsonValue pcArray(const analysis::Cfg& cfg,
                  const std::vector<InstrIndex>& indices) {
    JsonArray a;
    for (const InstrIndex i : indices)
        a.push_back(JsonValue(static_cast<std::uint64_t>(cfg.pcOf(i))));
    return JsonValue(std::move(a));
}

}  // namespace

JsonValue ipaReportJson(const IpaReportMeta& meta,
                        const analysis::FoldLegalityVerifier& verifier) {
    const IpaAnalysis& ipa = verifier.ipa();
    const analysis::Cfg& cfg = ipa.cfg;
    const Program& program = *cfg.program;

    // Resolution-aware static WCET: default cost model, no profile.  The
    // per-function cycles feed the summary records below.
    analysis::timing::WcetEngine engine(cfg, ipa.values,
                                        analysis::timing::TimingCostModel{},
                                        &ipa.resolution.map);
    const analysis::timing::WcetResult wcet = engine.compute({});
    std::map<std::uint32_t, std::uint64_t> cyclesByEntry(
        wcet.functionCycles.begin(), wcet.functionCycles.end());

    JsonObject doc;
    doc.emplace_back("schema", kIpaReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    JsonObject pipeline;
    pipeline.emplace_back("rounds",
                          static_cast<std::uint64_t>(ipa.stats.rounds));
    pipeline.emplace_back("ssa_defs",
                          static_cast<std::uint64_t>(ipa.stats.ssaDefs));
    pipeline.emplace_back("ssa_phis",
                          static_cast<std::uint64_t>(ipa.stats.ssaPhis));
    pipeline.emplace_back("ssa_uses",
                          static_cast<std::uint64_t>(ipa.stats.ssaUses));
    pipeline.emplace_back(
        "sccp_iterations",
        static_cast<std::uint64_t>(ipa.stats.sccpIterations));
    pipeline.emplace_back("sccp_converged", ipa.stats.sccpConverged);
    pipeline.emplace_back("dense_decided",
                          static_cast<std::uint64_t>(ipa.stats.denseDecided));
    pipeline.emplace_back("sccp_decided",
                          static_cast<std::uint64_t>(ipa.stats.sccpDecided));
    pipeline.emplace_back(
        "merged_decided",
        static_cast<std::uint64_t>(ipa.stats.mergedDecided));
    doc.emplace_back("pipeline", JsonValue(std::move(pipeline)));

    JsonObject resolution;
    resolution.emplace_back(
        "resolved_calls",
        static_cast<std::uint64_t>(ipa.resolution.resolvedCalls));
    resolution.emplace_back(
        "resolved_gotos",
        static_cast<std::uint64_t>(ipa.resolution.resolvedGotos));
    resolution.emplace_back(
        "unresolved_sites",
        static_cast<std::uint64_t>(ipa.resolution.unresolvedSites));
    resolution.emplace_back(
        "table_loads", static_cast<std::uint64_t>(ipa.resolution.tableLoads));
    JsonArray sites;
    for (const auto& [index, r] : ipa.resolution.map) {
        JsonObject s;
        s.emplace_back("pc", static_cast<std::uint64_t>(cfg.pcOf(index)));
        s.emplace_back("kind", r.isCall ? "call" : "goto");
        s.emplace_back("targets", pcArray(cfg, r.targets));
        sites.push_back(JsonValue(std::move(s)));
    }
    resolution.emplace_back("sites", JsonValue(std::move(sites)));
    doc.emplace_back("resolution", JsonValue(std::move(resolution)));

    const CallGraph& graph = ipa.callGraph;
    JsonObject callgraph;
    callgraph.emplace_back("functions",
                           static_cast<std::uint64_t>(graph.functions.size()));
    callgraph.emplace_back("edges",
                           static_cast<std::uint64_t>(graph.numEdges()));
    callgraph.emplace_back("recursive", graph.recursive);
    callgraph.emplace_back(
        "main_pc",
        static_cast<std::uint64_t>(
            graph.functions.empty()
                ? program.entry
                : graph.functions[graph.mainIndex].entryPc));
    JsonArray nodes;
    for (const FunctionSummary& f : graph.functions) {
        JsonObject n;
        n.emplace_back("entry_pc", static_cast<std::uint64_t>(f.entryPc));
        n.emplace_back("symbol", symbolAt(program, f.entryPc));
        n.emplace_back("blocks", static_cast<std::uint64_t>(f.blockCount));
        n.emplace_back("clobber_mask",
                       static_cast<std::uint64_t>(f.clobbered));
        n.emplace_back(
            "clobber_count",
            static_cast<std::uint64_t>(std::popcount(f.clobbered)));
        n.emplace_back("return_value", f.returnValue.str());
        JsonArray callees;
        for (const std::size_t c : f.callees)
            callees.push_back(JsonValue(
                static_cast<std::uint64_t>(graph.functions[c].entryPc)));
        n.emplace_back("callees", JsonValue(std::move(callees)));
        JsonArray callPcs;
        for (const std::uint32_t pc : f.callSitePcs)
            callPcs.push_back(JsonValue(static_cast<std::uint64_t>(pc)));
        n.emplace_back("call_site_pcs", JsonValue(std::move(callPcs)));
        n.emplace_back("unresolved_indirect", f.hasUnresolvedIndirect);
        n.emplace_back("reachable_from_main", f.reachableFromMain);
        const auto it = cyclesByEntry.find(f.entryPc);
        n.emplace_back("wcet_bounded", it != cyclesByEntry.end());
        n.emplace_back("wcet_cycles",
                       it != cyclesByEntry.end() ? it->second
                                                 : std::uint64_t{0});
        nodes.push_back(JsonValue(std::move(n)));
    }
    callgraph.emplace_back("nodes", JsonValue(std::move(nodes)));
    doc.emplace_back("callgraph", JsonValue(std::move(callgraph)));

    JsonObject wcetJson;
    wcetJson.emplace_back("bounded", wcet.bounded);
    wcetJson.emplace_back("cycles", wcet.cycles);
    wcetJson.emplace_back("reason", wcet.reason);
    doc.emplace_back("wcet", JsonValue(std::move(wcetJson)));
    return JsonValue(std::move(doc));
}

using enum FieldType;

const std::vector<std::string> kSiteKinds = {"call", "goto"};

const SchemaSpec kIpaReportSpec{
    kIpaReportSchema, kReportSchemaVersion,
    {
        {"meta", kObject},
        {"meta/benchmark", kString},
        {"pipeline", kObject},
        {"pipeline/rounds", kCount},
        {"pipeline/ssa_defs", kCount},
        {"pipeline/ssa_phis", kCount},
        {"pipeline/ssa_uses", kCount},
        {"pipeline/sccp_iterations", kCount},
        {"pipeline/sccp_converged", kBool},
        {"pipeline/dense_decided", kCount},
        {"pipeline/sccp_decided", kCount},
        {"pipeline/merged_decided", kCount},
        {"resolution", kObject},
        {"resolution/resolved_calls", kCount},
        {"resolution/resolved_gotos", kCount},
        {"resolution/unresolved_sites", kCount},
        {"resolution/table_loads", kCount},
        {"resolution/sites", kArray},
        {"resolution/sites/[]", kObject},
        {"resolution/sites/[]/pc", kCount},
        {"resolution/sites/[]/kind", kString, {.labels = &kSiteKinds}},
        {"resolution/sites/[]/targets", kArray, {.min = 1}},
        {"resolution/sites/[]/targets/[]", kCount},
        {"callgraph", kObject},
        {"callgraph/functions", kCount},
        {"callgraph/edges", kCount},
        {"callgraph/recursive", kBool},
        {"callgraph/main_pc", kCount},
        {"callgraph/nodes", kArray},
        {"callgraph/nodes/[]", kObject},
        {"callgraph/nodes/[]/entry_pc", kCount},
        {"callgraph/nodes/[]/symbol", kString},
        {"callgraph/nodes/[]/blocks", kCount},
        {"callgraph/nodes/[]/clobber_mask", kCount},
        {"callgraph/nodes/[]/clobber_count", kCount},
        {"callgraph/nodes/[]/return_value", kString},
        {"callgraph/nodes/[]/callees", kArray},
        {"callgraph/nodes/[]/callees/[]", kCount},
        {"callgraph/nodes/[]/call_site_pcs", kArray},
        {"callgraph/nodes/[]/call_site_pcs/[]", kCount},
        {"callgraph/nodes/[]/unresolved_indirect", kBool},
        {"callgraph/nodes/[]/reachable_from_main", kBool},
        {"callgraph/nodes/[]/wcet_bounded", kBool},
        {"callgraph/nodes/[]/wcet_cycles", kCount},
        {"wcet", kObject},
        {"wcet/bounded", kBool},
        {"wcet/cycles", kCount},
        {"wcet/reason", kString},
    },
    {
        // The reduced product can only add decided branches.
        {"pipeline.merged_decided >= pipeline.dense_decided",
         [](const JsonValue& d) {
             return countAt(d, "pipeline/merged_decided") >=
                    countAt(d, "pipeline/dense_decided");
         }},
        {"resolution call/goto counts == the sites array",
         [](const JsonValue& d) {
             const JsonArray& sites = itemsAt(d, "resolution/sites");
             return countAt(d, "resolution/resolved_calls") ==
                        countLabel(sites, "kind", "call") &&
                    countAt(d, "resolution/resolved_gotos") ==
                        countLabel(sites, "kind", "goto");
         }},
        {"callgraph.functions/edges == the nodes and their callee lists",
         [](const JsonValue& d) {
             const JsonArray& nodes = itemsAt(d, "callgraph/nodes");
             std::uint64_t edges = 0;
             for (const JsonValue& node : nodes)
                 edges += itemsAt(node, "callees").size();
             return countAt(d, "callgraph/functions") == nodes.size() &&
                    countAt(d, "callgraph/edges") == edges;
         }},
    }};

ReportValidation validateIpaReportJson(const JsonValue& doc) {
    return validate(doc, kIpaReportSpec);
}

}  // namespace asbr
