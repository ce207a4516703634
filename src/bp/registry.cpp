#include "bp/registry.hpp"

#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/perceptron.hpp"
#include "bp/static_predictors.hpp"
#include "bp/tage.hpp"
#include "bp/tournament.hpp"

namespace asbr {

const PredictorRegistry& PredictorRegistry::instance() {
    // Explicit registration (rather than static-initializer self-
    // registration) so the linker cannot drop family TUs from the static
    // library, and so the listing order is stable for --help and docs.
    static const PredictorRegistry registry = [] {
        PredictorRegistry built;
        registerStaticFamily(built);
        registerBimodalFamily(built);
        registerGshareFamily(built);
        registerTournamentFamily(built);
        registerTageFamily(built);
        registerPerceptronFamily(built);
        return built;
    }();
    return registry;
}

void PredictorRegistry::add(PredictorFamily family) {
    for (const PredictorFamily& existing : families_)
        ASBR_ENSURE(existing.prefix != family.prefix,
                    "duplicate predictor family prefix");
    ASBR_ENSURE(static_cast<bool>(family.make),
                "predictor family needs a factory");
    families_.push_back(std::move(family));
}

std::unique_ptr<BranchPredictor> PredictorRegistry::make(
    const std::string& token, std::string* error) const {
    const std::size_t colon = token.find(':');
    const std::string prefix =
        colon == std::string::npos ? token : token.substr(0, colon);
    const std::string params =
        colon == std::string::npos ? std::string{} : token.substr(colon + 1);
    for (const PredictorFamily& family : families_) {
        if (family.prefix != prefix) continue;
        std::string familyError;
        std::unique_ptr<BranchPredictor> predictor =
            family.make(params, familyError);
        if (!predictor && error) *error = familyError;
        return predictor;
    }
    if (error) *error = "unknown predictor family '" + prefix + "'";
    return nullptr;
}

std::uint64_t PredictorRegistry::storageBits(const std::string& token) const {
    std::string error;
    const std::unique_ptr<BranchPredictor> predictor = make(token, &error);
    ASBR_ENSURE(predictor != nullptr, "storageBits: " + error);
    return predictor->storageBits();
}

std::vector<std::string> PredictorRegistry::tokens() const {
    std::vector<std::string> names;
    names.reserve(families_.size());
    for (const PredictorFamily& family : families_)
        names.push_back(family.prefix);
    return names;
}

std::string PredictorRegistry::unknownTokenMessage(
    const std::string& token) const {
    std::string message;
    std::string error;
    if (make(token, &error)) {
        return "predictor token '" + token + "' is valid";
    }
    message = "unknown predictor '" + token + "' (" + error +
              "); registered tokens:";
    for (const PredictorFamily& family : families_)
        message += " " + family.grammar;
    return message;
}

}  // namespace asbr
