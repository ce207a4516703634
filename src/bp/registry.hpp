// PredictorRegistry — the single source of truth for predictor construction
// tokens, their parameter grammar, and storage-bit accounting.
//
// Every CLI surface (asbr-stats, asbr-sweep, asbr-faults), the driver's
// SimJob expansion and the benchmark binaries resolve predictor tokens
// through this registry, and every token a report records can be resolved
// back into the exact predictor it described.  Each family module registers
// itself via its register*Family hook, invoked exactly once when the
// registry instance is first built — so the token table, the `--help`
// listings and the docs checked by ci/docs-check.sh can never drift apart.
//
// Token grammar (docs/predictors.md): a family name, optionally followed by
// `:` and dash-separated parameters, e.g. `tage:h8-16-32-64` or
// `perceptron:n256-h12`.  Unparameterized tokens build the family default.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bp/predictor.hpp"

namespace asbr {

/// One registered token family.  `make` receives the text after the `:`
/// (empty for a bare token) and returns nullptr with `error` set when the
/// parameters do not parse.
struct PredictorFamily {
    std::string prefix;   ///< token / token prefix before ':' ("tage")
    std::string grammar;  ///< displayed form ("tage[:hL1-L2-...[-eN][-tW]]")
    std::string summary;  ///< one-line description for --help and docs
    std::function<std::unique_ptr<BranchPredictor>(const std::string& params,
                                                   std::string& error)>
        make;
};

class PredictorRegistry {
public:
    /// The process-wide registry with every built-in family registered.
    [[nodiscard]] static const PredictorRegistry& instance();

    PredictorRegistry() = default;

    /// Register a family; the prefix must be unique.
    void add(PredictorFamily family);

    /// Construct the predictor a token describes; nullptr for unknown
    /// tokens or malformed parameters (`error`, when non-null, explains).
    [[nodiscard]] std::unique_ptr<BranchPredictor> make(
        const std::string& token, std::string* error = nullptr) const;

    /// Storage-bit accounting for a token (asserts the token is valid).
    [[nodiscard]] std::uint64_t storageBits(const std::string& token) const;

    /// Every registered family prefix, in registration order.
    [[nodiscard]] std::vector<std::string> tokens() const;

    /// The structured one-line diagnostic for an unknown/malformed token:
    /// names the offending token and enumerates every registered family.
    [[nodiscard]] std::string unknownTokenMessage(
        const std::string& token) const;

    [[nodiscard]] const std::vector<PredictorFamily>& families() const {
        return families_;
    }

private:
    std::vector<PredictorFamily> families_;
};

}  // namespace asbr
