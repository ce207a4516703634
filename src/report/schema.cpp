#include "report/schema.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "util/ensure.hpp"

namespace asbr {

namespace {

/// 2^64: integral doubles below it convert to uint64 exactly.
constexpr double kUintLimit = 18446744073709551616.0;

bool isIntegral(const JsonValue& v) {
    if (!v.isNumber()) return false;
    const double d = v.asDouble();
    return v.kind() != JsonValue::Kind::kDouble ||
           (std::floor(d) == d && std::fabs(d) < kUintLimit);
}

bool hasType(const JsonValue& v, FieldType type) {
    switch (type) {
        case FieldType::kString: return v.isString();
        case FieldType::kBool: return v.isBool();
        case FieldType::kNumber: return v.isNumber();
        case FieldType::kInteger: return isIntegral(v);
        case FieldType::kCount: return isIntegral(v) && v.asDouble() >= 0;
        case FieldType::kObject: return v.isObject();
        case FieldType::kArray: return v.isArray();
    }
    return false;
}

/// Indexed by FieldType.
constexpr const char* kTypeNames[] = {
    "a string", "a bool", "a number", "an integer", "a non-negative integer",
    "an object", "an array"};

/// One step of the walk from the document root: a member key, or an array
/// index.  The path text is only built for an error message.
struct Step {
    static constexpr std::size_t kMember = ~std::size_t{0};
    const Step* up;
    std::string_view key;
    std::size_t index = kMember;
};

std::string pathOf(const Step* step) {
    if (step == nullptr) return {};
    const std::string up = pathOf(step->up);
    if (step->index != Step::kMember)
        return up + "[" + std::to_string(step->index) + "]";
    return up.empty() ? std::string(step->key)
                      : up + "/" + std::string(step->key);
}

/// One validation pass: `where` prefixes every message ("sim_report: ",
/// or "sweep_report: cells[2]/report/" inside an embedded document).
struct Checker {
    std::vector<std::string>& errors;

    void document(const JsonValue& doc, const SchemaSpec& spec,
                  const std::string& where) {
        const std::size_t before = errors.size();
        if (spec.version != 0) {
            const JsonValue* schema = doc.find("schema");
            if (schema == nullptr || !schema->isString() ||
                schema->asString() != spec.id)
                errors.push_back(where + "schema is not '" + spec.id + "'");
            const JsonValue* version = doc.find("version");
            if (version == nullptr ||
                !hasType(*version, FieldType::kCount) ||
                version->asUint() != spec.version)
                errors.push_back(where + "unsupported schema version (want " +
                                 std::to_string(spec.version) + ")");
        }
        for (const FieldSpec& field : spec.fields)
            visit(doc, field, field.path, nullptr, where);
        if (errors.size() != before) return;
        for (const Invariant& invariant : spec.invariants) {
            if (!invariant.holds(doc)) {
                errors.push_back(where + "violates " + invariant.rule);
                return;
            }
        }
    }

    /// Walk the segments `rest` of `field`'s path down from `node`.
    void visit(const JsonValue& node, const FieldSpec& field,
               std::string_view rest, const Step* up,
               const std::string& where) {
        const std::size_t slash = rest.find('/');
        const bool last = slash == std::string_view::npos;
        const std::string_view segment = rest.substr(0, slash);
        const auto next = [&](const JsonValue& child, const Step& step) {
            if (last)
                value(child, field, &step, where);
            else
                visit(child, field, rest.substr(slash + 1), &step, where);
        };
        if (segment == "[]") {
            if (!node.isArray()) return;
            for (std::size_t i = 0; i < node.asArray().size(); ++i)
                next(node.asArray()[i], Step{up, {}, i});
        } else if (segment == "*") {
            if (!node.isObject()) return;
            for (const auto& [key, member] : node.asObject())
                next(member, Step{up, key});
        } else if (node.isObject()) {
            if (const JsonValue* member = node.find(segment))
                next(*member, Step{up, segment});
            else if (const Step missing{up, segment};
                     last && !field.check.optional)
                errors.push_back(where + pathOf(&missing) + " is missing");
        }
    }

    void value(const JsonValue& v, const FieldSpec& field, const Step* at,
               const std::string& where) {
        const FieldCheck& check = field.check;
        if (!hasType(v, field.type)) {
            errors.push_back(where + pathOf(at) + " is not " +
                             kTypeNames[static_cast<int>(field.type)]);
            return;
        }
        if (field.type == FieldType::kCount ||
            field.type == FieldType::kNumber ||
            field.type == FieldType::kArray) {
            const bool array = field.type == FieldType::kArray;
            const double n = array ? static_cast<double>(v.asArray().size())
                                   : v.asDouble();
            if (n < static_cast<double>(check.min) ||
                n > static_cast<double>(check.max))
                errors.push_back(
                    where + pathOf(at) + (array ? " length" : "") +
                    " is not " +
                    (check.max == FieldCheck{}.max
                         ? ">= " + std::to_string(check.min)
                         : std::to_string(check.min) + ".." +
                               std::to_string(check.max)));
        }
        if (check.labels != nullptr &&
            std::find(check.labels->begin(), check.labels->end(),
                      v.asString()) == check.labels->end())
            errors.push_back(where + pathOf(at) + " = '" + v.asString() +
                             "' is not a known label");
        if (check.nested != nullptr)
            document(v, *check.nested, where + pathOf(at) + "/");
        if (check.parse != nullptr) {
            try {
                check.parse(v);
            } catch (const std::exception& e) {
                errors.push_back(where + pathOf(at) + ": " + e.what());
            }
        }
    }
};

}  // namespace

ReportValidation validate(const JsonValue& doc, const SchemaSpec& spec) {
    ReportValidation out;
    // "asbr.sim_report" -> "sim_report"; record names stay as they are.
    const std::string name = spec.id.substr(spec.id.rfind('.') + 1);
    if (!doc.isObject())
        out.errors.push_back(name + ": not a JSON object");
    else
        Checker{out.errors}.document(doc, spec, name + ": ");
    return out;
}

const JsonValue& at(const JsonValue& doc, std::string_view path) {
    const JsonValue* node = &doc;
    for (std::size_t begin = 0; node != nullptr && begin <= path.size();) {
        const std::size_t end = std::min(path.find('/', begin), path.size());
        node = node->find(path.substr(begin, end - begin));
        begin = end + 1;
    }
    ASBR_ENSURE(node != nullptr,
                "schema: no member '" + std::string(path) + "'");
    return *node;
}

std::uint64_t countAt(const JsonValue& doc, std::string_view path) {
    return at(doc, path).asUint();
}

const JsonArray& itemsAt(const JsonValue& doc, std::string_view path) {
    return at(doc, path).asArray();
}

std::uint64_t countLabel(const JsonArray& items, std::string_view key,
                         std::string_view label) {
    return static_cast<std::uint64_t>(
        std::count_if(items.begin(), items.end(), [&](const JsonValue& item) {
            return item.find(key)->asString() == label;
        }));
}

std::uint64_t sumOf(const JsonArray& items, std::string_view key) {
    std::uint64_t sum = 0;
    for (const JsonValue& item : items) sum += item.find(key)->asUint();
    return sum;
}

}  // namespace asbr
