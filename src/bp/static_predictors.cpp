#include "bp/static_predictors.hpp"

#include "bp/registry.hpp"

namespace asbr {

std::unique_ptr<BranchPredictor> makeNotTaken() {
    return std::make_unique<NotTakenPredictor>();
}

void registerStaticFamily(PredictorRegistry& registry) {
    registry.add({"not-taken", "not-taken",
                  "always predict not-taken (no predictor hardware)",
                  [](const std::string& params, std::string& error)
                      -> std::unique_ptr<BranchPredictor> {
                      if (!params.empty()) {
                          error = "not-taken takes no parameters";
                          return nullptr;
                      }
                      return makeNotTaken();
                  }});
    registry.add({"taken", "taken",
                  "predict taken whenever the BTB knows the target",
                  [](const std::string& params, std::string& error)
                      -> std::unique_ptr<BranchPredictor> {
                      if (!params.empty()) {
                          error = "taken takes no parameters";
                          return nullptr;
                      }
                      return std::make_unique<AlwaysTakenPredictor>(2048);
                  }});
}

}  // namespace asbr
