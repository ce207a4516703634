// Schema tables (src/report/schema.hpp) against real documents and docs.
//
//   * Golden mutation: every committed golden plus one generated
//     asbr.bench_report gets each member and array item deleted, retyped,
//     set to -1 and set to 1.5.  Validation must never throw, and must reject
//     every mutation except those on the commented allowlist below.
//   * Table shape: every field path's parent is declared with the container
//     type its next segment steps into, so no check is skipped silently.
//   * Docs sync: each registered schema's JSON example in docs/metrics.md
//     names every member of its table, and every member the example shows
//     is in the table or under a free-form path.
//
// ASBR_GOLDEN_DIR and ASBR_METRICS_DOC are injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "driver/engine.hpp"
#include "report/report.hpp"
#include "report/schema.hpp"

namespace asbr {
namespace {

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::vector<std::string> split(const std::string& path) {
    std::vector<std::string> out;
    std::size_t begin = 0;
    for (std::size_t end; (end = path.find('/', begin)) != path.npos;
         begin = end + 1)
        out.push_back(path.substr(begin, end - begin));
    out.push_back(path.substr(begin));
    return out;
}

/// Glob over '/'-separated paths: "*" matches one segment, "**" any run of
/// segments (including none).
bool globMatch(const std::vector<std::string>& pattern, std::size_t p,
               const std::vector<std::string>& path, std::size_t i) {
    if (p == pattern.size()) return i == path.size();
    if (pattern[p] == "**")
        return globMatch(pattern, p + 1, path, i) ||
               (i < path.size() && globMatch(pattern, p, path, i + 1));
    return i < path.size() && (pattern[p] == "*" || pattern[p] == path[i]) &&
           globMatch(pattern, p + 1, path, i + 1);
}

bool globMatch(const std::string& pattern, const std::string& path) {
    return globMatch(split(pattern), 0, split(path), 0);
}

// ------------------------------------------------------ golden mutation ----

enum class Mutation { kDelete, kRetype, kMinusOne, kOnePointFive };
constexpr const char* kMutationNames[] = {"delete", "retype", "-1", "1.5"};

/// Mutations a validator may accept, by path (array indices read "[]").
struct Allowed {
    const char* path;
    std::vector<Mutation> mutations;  ///< empty = every mutation
};

const std::vector<Allowed> kAllowlist = {
    // Free-form maps: any counter beyond the required ones and any site
    // table or histogram may be absent; histogram bounds and sums are
    // arbitrary non-negative reals.
    {"**/counters/*", {Mutation::kDelete}},
    {"**/sites/**", {Mutation::kDelete}},
    {"**/histograms/*", {Mutation::kDelete}},
    {"**/histograms/*/*", {Mutation::kOnePointFive}},
    {"**/histograms/*/bounds/[]", {Mutation::kOnePointFive}},
    // Options echo the producing run's command line and are not checked.
    {"options/**", {}},
    // Item lists no other member counts: call sites of a function, targets
    // of a resolved jump (still non-empty), runs of a bench and cells of a
    // sweep (the grid is not restated in the document).
    {"callgraph/nodes/[]/call_site_pcs/[]", {Mutation::kDelete}},
    {"resolution/sites/[]/targets/[]", {Mutation::kDelete}},
    {"runs/[]", {Mutation::kDelete}},
    {"cells/[]", {Mutation::kDelete}},
    // Optional members.
    {"**/meta/predictor_token", {Mutation::kDelete}},
    {"**/meta/figure", {Mutation::kDelete}},
    {"injections/[]/detail", {Mutation::kDelete}},
    {"reference", {Mutation::kDelete}},
    // Well-formed values: any non-negative CPI, any signed exit status.
    {"**/derived/cpi", {Mutation::kOnePointFive}},
    {"totals/exit_code", {Mutation::kMinusOne}},
};

bool allowlisted(const std::string& path, Mutation mutation) {
    for (const Allowed& a : kAllowlist)
        if (globMatch(a.path, path) &&
            (a.mutations.empty() ||
             std::find(a.mutations.begin(), a.mutations.end(), mutation) !=
                 a.mutations.end()))
            return true;
    return false;
}

JsonValue retyped(const JsonValue& v) {
    if (v.isString()) return JsonValue(std::uint64_t{0});
    if (v.isObject()) return JsonValue(JsonArray{});
    if (v.isArray()) return JsonValue(JsonObject{});
    return JsonValue("x");
}

using MutationCheck =
    std::function<void(const std::string& pattern, const std::string& path)>;

/// Apply `mutation` to every member and array item below `node` in turn,
/// calling `check` while it is applied.  `pattern` spells array indices
/// "[]"; `path` keeps them.
void mutateEach(JsonValue& node, const std::string& pattern,
                const std::string& path, Mutation mutation,
                const MutationCheck& check) {
    const bool object = node.isObject();
    const std::size_t size = object          ? node.asObject().size()
                             : node.isArray() ? node.asArray().size()
                                              : 0;
    const std::string sep = pattern.empty() ? "" : "/";
    for (std::size_t i = 0; i < size; ++i) {
        const std::string key = object ? node.asObject()[i].first : "[]";
        const std::string p = pattern + sep + key;
        const std::string c =
            path + sep + (object ? key : std::to_string(i));
        const auto item = [&]() -> JsonValue& {
            return object ? node.asObject()[i].second : node.asArray()[i];
        };
        if (mutation == Mutation::kDelete) {
            const JsonValue saved = node;
            if (object)
                node.asObject().erase(node.asObject().begin() + i);
            else
                node.asArray().erase(node.asArray().begin() + i);
            check(p, c);
            node = saved;
        } else {
            const JsonValue saved = item();
            item() = mutation == Mutation::kRetype     ? retyped(saved)
                     : mutation == Mutation::kMinusOne ? JsonValue(-1)
                                                       : JsonValue(1.5);
            check(p, c);
            item() = saved;
        }
        mutateEach(item(), p, c, mutation, check);
    }
}

/// Two tiny engine runs (baseline and ASBR) wrapped as a bench report.
JsonValue generatedBenchReport() {
    driver::SimJob job;
    job.samples = 1000;
    job.figure = "test";
    driver::SimJob asbr = job;
    asbr.predictor = "bi512";
    asbr.asbr = true;
    driver::SimEngine engine;
    std::vector<SimReport> runs;
    for (const driver::JobResult& r : engine.run({job, asbr}))
        runs.push_back(r.report);
    JsonObject options;
    options.emplace_back("seed", std::uint64_t{2001});
    return benchReportJson("report_schema_test", JsonValue(std::move(options)),
                           runs);
}

TEST(GoldenMutationTest, ValidationRejectsEveryMutationOffTheAllowlist) {
    std::vector<std::pair<std::string, JsonValue>> docs;
    std::vector<std::filesystem::path> goldens;
    for (const auto& entry :
         std::filesystem::directory_iterator(ASBR_GOLDEN_DIR))
        goldens.push_back(entry.path());
    std::sort(goldens.begin(), goldens.end());
    for (const auto& path : goldens) {
        const JsonParseResult parsed = parseJson(readFile(path.string()));
        ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.error;
        docs.emplace_back(path.filename().string(), *parsed.value);
    }
    EXPECT_EQ(docs.size(), 12u);
    docs.emplace_back("generated bench report", generatedBenchReport());

    std::size_t accepted = 0, rejected = 0;
    for (auto& [name, doc] : docs) {
        const SchemaSpec* spec = findSchema(doc.find("schema")->asString());
        ASSERT_NE(spec, nullptr) << name;
        const ReportValidation clean = validate(doc, *spec);
        ASSERT_TRUE(clean.ok()) << name << ": " << clean.errors.front();
        for (const Mutation mutation :
             {Mutation::kDelete, Mutation::kRetype, Mutation::kMinusOne,
              Mutation::kOnePointFive}) {
            const char* what = kMutationNames[static_cast<int>(mutation)];
            mutateEach(doc, "", "", mutation,
                       [&](const std::string& pattern,
                           const std::string& concrete) {
                ReportValidation result;
                EXPECT_NO_THROW(result = validate(doc, *spec))
                    << name << ": " << what << " " << concrete;
                if (!result.ok()) {
                    ++rejected;
                } else {
                    ++accepted;
                    EXPECT_TRUE(allowlisted(pattern, mutation))
                        << name << ": accepted " << what << " of "
                        << concrete;
                }
            });
        }
        ASSERT_TRUE(validate(doc, *spec).ok()) << name << " not restored";
    }
    std::printf("golden mutations: %zu rejected, %zu accepted (allowlisted)\n",
                rejected, accepted);
}

// ----------------------------------------------------------- table shape ----

/// Every registered schema plus the records they embed.
std::vector<const SchemaSpec*> allSpecs() {
    std::vector<const SchemaSpec*> out = reportSchemas();
    for (std::size_t i = 0; i < out.size(); ++i)
        for (const FieldSpec& field : out[i]->fields)
            if (field.check.nested != nullptr &&
                std::find(out.begin(), out.end(), field.check.nested) ==
                    out.end())
                out.push_back(field.check.nested);
    return out;
}

TEST(SchemaTableTest, EveryParentIsDeclaredWithItsContainerType) {
    EXPECT_EQ(reportSchemas().size(), 8u);
    EXPECT_EQ(findSchema("asbr.made_up_schema"), nullptr);
    for (const SchemaSpec* spec : allSpecs()) {
        EXPECT_EQ(findSchema(spec->id), spec->version == 0 ? nullptr : spec);
        for (const FieldSpec& field : spec->fields) {
            const std::string path(field.path);
            const std::size_t slash = path.rfind('/');
            if (slash == std::string::npos) continue;
            const std::string parent = path.substr(0, slash);
            const FieldType want = path.substr(slash + 1) == "[]"
                                       ? FieldType::kArray
                                       : FieldType::kObject;
            const auto it = std::find_if(
                spec->fields.begin(), spec->fields.end(),
                [&](const FieldSpec& f) { return f.path == parent; });
            ASSERT_NE(it, spec->fields.end())
                << spec->id << ": " << path << " has no parent entry";
            EXPECT_EQ(it->type, want) << spec->id << ": " << parent;
        }
    }
}

// ------------------------------------------------------------ docs sync ----

/// Members whose contents no table describes: options echo the command
/// line, and custom-parsed or separately documented members are opaque.
struct FlatTable {
    std::vector<std::string> paths;
    std::vector<std::string> opaque = {"options"};
};

void flatten(const SchemaSpec& spec, const std::string& prefix,
             FlatTable& out) {
    if (spec.version != 0) {
        out.paths.push_back(prefix + "schema");
        out.paths.push_back(prefix + "version");
    }
    for (const FieldSpec& field : spec.fields) {
        const std::string path = prefix + std::string(field.path);
        out.paths.push_back(path);
        if (field.check.parse != nullptr) out.opaque.push_back(path);
        if (field.check.nested == nullptr) continue;
        if (field.check.nested->version == 0)
            flatten(*field.check.nested, path + "/", out);
        else
            out.opaque.push_back(path);
    }
}

/// The ```json block under the "(`id`, version N)" heading.
std::string docBlock(const std::string& doc, const SchemaSpec& spec) {
    const std::string heading = "(`" + spec.id + "`, version " +
                                std::to_string(spec.version) + ")";
    const std::size_t at = doc.find(heading);
    if (at == doc.npos) return {};
    const std::size_t open = doc.find("```json\n", at);
    const std::size_t close = doc.find("\n```", open + 1);
    if (open == doc.npos || close == doc.npos) return {};
    return doc.substr(open + 8, close - open - 8);
}

/// Key paths of a documentation example: JSON with // comments and "..."
/// placeholders, read leniently.  Array elements add a "[]" segment.
std::vector<std::string> docKeyPaths(const std::string& block) {
    std::string text = block;
    for (std::size_t at; (at = text.find("//")) != text.npos;)
        text.erase(at, text.find('\n', at) - at);
    std::vector<std::pair<bool, std::string>> stack;  // (is array, path)
    std::vector<std::string> out;
    std::string key;
    const auto join = [](const std::string& a, const std::string& b) {
        return a.empty() ? b : a + "/" + b;
    };
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '"') {
            const std::size_t end = text.find('"', i + 1);
            const std::string s = text.substr(i + 1, end - i - 1);
            i = end;
            const std::size_t next = text.find_first_not_of(" \n", i + 1);
            if (next != text.npos && text[next] == ':' && !stack.empty()) {
                key = s;
                out.push_back(join(stack.back().second, key));
            }
        } else if (c == '{' || c == '[') {
            const std::string path =
                stack.empty() ? ""
                : stack.back().first ? join(stack.back().second, "[]")
                                     : join(stack.back().second, key);
            stack.emplace_back(c == '[', path);
        } else if ((c == '}' || c == ']') && !stack.empty()) {
            stack.pop_back();
        }
    }
    return out;
}

TEST(SchemaDocsTest, MetricsDocShowsExactlyEachTable) {
    const std::string doc = readFile(ASBR_METRICS_DOC);
    ASSERT_FALSE(doc.empty()) << ASBR_METRICS_DOC;
    for (const SchemaSpec* spec : reportSchemas()) {
        const std::string block = docBlock(doc, *spec);
        ASSERT_FALSE(block.empty())
            << "docs/metrics.md has no JSON example under a heading naming (`"
            << spec->id << "`, version " << spec->version << ")";
        FlatTable table;
        flatten(*spec, "", table);
        const std::vector<std::string> keys = docKeyPaths(block);
        std::set<std::string> keyNames;
        for (const std::string& key : keys) keyNames.insert(split(key).back());

        // Table -> doc: every named segment appears as a key.
        for (const std::string& path : table.paths) {
            for (const std::string& segment : split(path)) {
                if (segment == "[]" || segment == "*") continue;
                EXPECT_EQ(keyNames.count(segment), 1u)
                    << spec->id << ": docs/metrics.md example lacks \""
                    << segment << "\" (from " << path << ")";
            }
        }

        // Doc -> table: every key shown is declared or under an opaque path.
        for (const std::string& key : keys) {
            const auto under = [&](const std::string& prefix) {
                return key == prefix || key.rfind(prefix + "/", 0) == 0;
            };
            const bool declared =
                std::any_of(table.paths.begin(), table.paths.end(),
                            [&](const std::string& p) {
                                return globMatch(p, key);
                            }) ||
                std::any_of(table.opaque.begin(), table.opaque.end(), under);
            EXPECT_TRUE(declared) << spec->id << ": docs/metrics.md shows "
                                  << key << ", which the table lacks";
        }
    }
}

}  // namespace
}  // namespace asbr
