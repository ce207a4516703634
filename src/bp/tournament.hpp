// Tournament (combining) predictor family.  Registry token:
// `tournament[:cN-hH-bM]`.
#pragma once

#include <memory>

#include "bp/predictor.hpp"

namespace asbr {

class PredictorRegistry;

/// McFarling's combining (tournament) predictor [McFarling 93]: a bimodal
/// and a gshare component share a BTB; a table of 2-bit chooser counters
/// indexed by PC picks which component to trust, trained towards whichever
/// component was right when they disagree.
class TournamentPredictor final : public BranchPredictor {
public:
    TournamentPredictor(std::uint32_t choosers, std::uint32_t counters,
                        std::uint32_t historyBits, std::uint32_t btbEntries);
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string token() const override;
    Prediction predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken, std::uint32_t target) override;
    void reset() override;
    [[nodiscard]] std::uint64_t storageBits() const override;

private:
    [[nodiscard]] bool bimodalTaken(std::uint32_t pc) const;
    [[nodiscard]] bool gshareTaken(std::uint32_t pc) const;

    std::vector<std::uint8_t> choosers_;  // >=2 prefers gshare
    std::vector<std::uint8_t> bimodal_;
    std::vector<std::uint8_t> gshare_;
    std::uint32_t historyBits_;
    std::uint32_t history_ = 0;
    Btb btb_;
};

/// Register `tournament` (called once from PredictorRegistry::instance()).
void registerTournamentFamily(PredictorRegistry& registry);

}  // namespace asbr
