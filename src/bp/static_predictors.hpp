// Stateless predictor family: not-taken and always-taken.  Registry
// tokens: `not-taken`, `taken` (docs/predictors.md).
#pragma once

#include <memory>

#include "bp/predictor.hpp"

namespace asbr {

class PredictorRegistry;

/// Always predicts not-taken ("the default in many embedded processors that
/// lack branch predictors").
class NotTakenPredictor final : public BranchPredictor {
public:
    [[nodiscard]] std::string name() const override { return "not taken"; }
    [[nodiscard]] std::string token() const override { return "not-taken"; }
    Prediction predict(std::uint32_t) override { return {}; }
    void update(std::uint32_t, bool, std::uint32_t) override {}
    void reset() override {}
    [[nodiscard]] std::uint64_t storageBits() const override { return 0; }
};

/// Predicts taken whenever the BTB knows the target.
class AlwaysTakenPredictor final : public BranchPredictor {
public:
    explicit AlwaysTakenPredictor(std::uint32_t btbEntries) : btb_(btbEntries) {}
    [[nodiscard]] std::string name() const override { return "always taken"; }
    [[nodiscard]] std::string token() const override { return "taken"; }
    Prediction predict(std::uint32_t pc) override { return {true, btb_.lookup(pc)}; }
    void update(std::uint32_t pc, bool taken, std::uint32_t target) override {
        if (taken) btb_.update(pc, target);
    }
    void reset() override { btb_.reset(); }
    [[nodiscard]] std::uint64_t storageBits() const override {
        return btb_.storageBits();
    }

private:
    Btb btb_;
};

[[nodiscard]] std::unique_ptr<BranchPredictor> makeNotTaken();

/// Register the `not-taken` and `taken` tokens (called once from
/// PredictorRegistry::instance()).
void registerStaticFamily(PredictorRegistry& registry);

}  // namespace asbr
