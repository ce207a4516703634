// Schema-as-data report validation.
//
// Every report kind declares its shape once, beside its producer, as a
// SchemaSpec: a table of member paths with their types and checks, plus
// named cross-field invariants.  `validate` is the one generic checker, and
// findSchema the registry `asbr-stats validate` dispatches through.
// tests/report_schema_test.cpp keeps the tables in sync with the JSON
// examples in docs/metrics.md.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace asbr {

/// Schema validation: empty error list means the document conforms.
struct ReportValidation {
    std::vector<std::string> errors;
    [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// The JSON type a member must have.  kCount is a non-negative integer, as
/// every counter, cycle count, pc and line number in a report is.
enum class FieldType {
    kString, kBool, kNumber, kInteger, kCount, kObject, kArray
};

struct SchemaSpec;

/// Checks on one member beyond its type.
struct FieldCheck {
    bool optional = false;  ///< may be absent even when its parent exists
    /// Inclusive range of a kCount or kNumber value (so numbers are
    /// non-negative by default), or of a kArray's length.
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::string>* labels = nullptr;  ///< known kString values
    const SchemaSpec* nested = nullptr;  ///< the member is one of these
    /// Custom parse of the member; throws EnsureError when it is malformed.
    void (*parse)(const JsonValue&) = nullptr;
};

/// One member of a schema.  `path` is '/'-separated from the document
/// root: a "[]" segment steps into every array element and "*" into every
/// object member, so "counters/*" types every counter while
/// "counters/pipeline.cycles" requires one.  A member is checked wherever
/// its parent exists; a missing or mistyped parent is reported by the
/// parent's own entry.
struct FieldSpec {
    std::string_view path;
    FieldType type;
    FieldCheck check = {};
};

/// A cross-field rule.  It runs only once every field checked clean, so
/// `holds` reads required members without re-checking presence or type.
/// A schema's invariants run in order and stop at the first violation, so
/// a rule may rely on the ones before it.
struct Invariant {
    const char* rule;  ///< what must hold; reported when it does not
    bool (*holds)(const JsonValue& doc);
};

/// One document shape.  A versioned schema requires the exact
/// `schema`/`version` pair; version 0 marks a record embedded in a report.
struct SchemaSpec {
    std::string id;  ///< "asbr.sim_report", or a bare name for records
    std::uint64_t version = 0;
    std::vector<FieldSpec> fields;
    std::vector<Invariant> invariants = {};
};

/// Check `doc` against `spec`.  Never throws: any malformed input comes
/// back as errors naming the offending member.
[[nodiscard]] ReportValidation validate(const JsonValue& doc,
                                        const SchemaSpec& spec);

/// The registry of report schemas, and lookup by id (nullptr if unknown).
[[nodiscard]] const std::vector<const SchemaSpec*>& reportSchemas();
[[nodiscard]] const SchemaSpec* findSchema(std::string_view id);

/// Names of the given enumerators, for a FieldCheck label set.
template <typename E>
[[nodiscard]] std::vector<std::string> labelsOf(const char* (*name)(E),
                                                std::initializer_list<E> all) {
    std::vector<std::string> out;
    for (const E e : all) out.emplace_back(name(e));
    return out;
}

// Invariant helpers.  `path` is '/'-separated keys from `doc` and may only
// name members the field table requires.
[[nodiscard]] const JsonValue& at(const JsonValue& doc, std::string_view path);
[[nodiscard]] std::uint64_t countAt(const JsonValue& doc,
                                    std::string_view path);
[[nodiscard]] const JsonArray& itemsAt(const JsonValue& doc,
                                       std::string_view path);
/// Number of `items` whose member `key` is the string `label`.
[[nodiscard]] std::uint64_t countLabel(const JsonArray& items,
                                       std::string_view key,
                                       std::string_view label);
/// Sum of the count member `key` over `items`.
[[nodiscard]] std::uint64_t sumOf(const JsonArray& items,
                                  std::string_view key);

}  // namespace asbr
