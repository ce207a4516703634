#include "bp/tournament.hpp"

#include <algorithm>

#include "bp/registry.hpp"
#include "bp/token_params.hpp"

namespace asbr {

using bp_detail::isPow2;
using bp_detail::saturate2;

TournamentPredictor::TournamentPredictor(std::uint32_t choosers,
                                         std::uint32_t counters,
                                         std::uint32_t historyBits,
                                         std::uint32_t btbEntries)
    : choosers_(choosers, 1),
      bimodal_(counters, 1),
      gshare_(counters, 1),
      historyBits_(historyBits),
      btb_(btbEntries) {
    ASBR_ENSURE(isPow2(choosers) && isPow2(counters),
                "table sizes must be powers of two");
    ASBR_ENSURE(historyBits >= 1 && historyBits <= 30, "history bits 1..30");
}

std::string TournamentPredictor::name() const {
    return "tournament-" + std::to_string(bimodal_.size()) + "/btb-" +
           std::to_string(btb_.entries());
}

std::string TournamentPredictor::token() const {
    if (choosers_.size() == 2048 && bimodal_.size() == 2048 &&
        historyBits_ == 11 && btb_.entries() == 2048)
        return "tournament";
    return "tournament:c" + std::to_string(bimodal_.size()) + "-h" +
           std::to_string(historyBits_) + "-b" + std::to_string(btb_.entries());
}

bool TournamentPredictor::bimodalTaken(std::uint32_t pc) const {
    return bimodal_[(pc >> 2) & (bimodal_.size() - 1)] >= 2;
}

bool TournamentPredictor::gshareTaken(std::uint32_t pc) const {
    return gshare_[((pc >> 2) ^ history_) & (gshare_.size() - 1)] >= 2;
}

Prediction TournamentPredictor::predict(std::uint32_t pc) {
    const bool useGshare = choosers_[(pc >> 2) & (choosers_.size() - 1)] >= 2;
    const bool taken = useGshare ? gshareTaken(pc) : bimodalTaken(pc);
    return {taken, taken ? btb_.lookup(pc) : std::nullopt};
}

void TournamentPredictor::update(std::uint32_t pc, bool taken,
                                 std::uint32_t target) {
    const bool bimodalWasRight = bimodalTaken(pc) == taken;
    const bool gshareWasRight = gshareTaken(pc) == taken;
    std::uint8_t& chooser = choosers_[(pc >> 2) & (choosers_.size() - 1)];
    if (gshareWasRight != bimodalWasRight)
        chooser = saturate2(chooser, gshareWasRight);

    std::uint8_t& bi = bimodal_[(pc >> 2) & (bimodal_.size() - 1)];
    bi = saturate2(bi, taken);
    std::uint8_t& gs = gshare_[((pc >> 2) ^ history_) & (gshare_.size() - 1)];
    gs = saturate2(gs, taken);
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) & ((1u << historyBits_) - 1);
    if (taken) btb_.update(pc, target);
}

void TournamentPredictor::reset() {
    std::fill(choosers_.begin(), choosers_.end(), std::uint8_t{1});
    std::fill(bimodal_.begin(), bimodal_.end(), std::uint8_t{1});
    std::fill(gshare_.begin(), gshare_.end(), std::uint8_t{1});
    history_ = 0;
    btb_.reset();
}

std::uint64_t TournamentPredictor::storageBits() const {
    return (choosers_.size() + bimodal_.size() + gshare_.size()) * 2ull +
           historyBits_ + btb_.storageBits();
}

namespace {

std::unique_ptr<BranchPredictor> parseTournament(const std::string& params,
                                                 std::string& error) {
    std::uint64_t counters = 2048;
    std::uint64_t history = 11;
    std::uint64_t btb = 2048;
    for (const std::string& seg : bp_detail::splitDash(params)) {
        std::uint64_t value = 0;
        if (seg.size() < 2 || !bp_detail::parseUint(seg.substr(1), value)) {
            error = "tournament: bad parameter '" + seg +
                    "' (want cN, hH or bM)";
            return nullptr;
        }
        switch (seg.front()) {
            case 'c': counters = value; break;
            case 'h': history = value; break;
            case 'b': btb = value; break;
            default:
                error = "tournament: unknown parameter '" + seg + "'";
                return nullptr;
        }
    }
    if (history < 1 || history > 30) {
        error = "tournament: history bits must be 1..30";
        return nullptr;
    }
    if (!isPow2(static_cast<std::uint32_t>(counters)) ||
        !isPow2(static_cast<std::uint32_t>(btb)) || counters > (1u << 20) ||
        btb > (1u << 20)) {
        error = "tournament: table sizes must be powers of two (<= 1M entries)";
        return nullptr;
    }
    return std::make_unique<TournamentPredictor>(
        static_cast<std::uint32_t>(counters),
        static_cast<std::uint32_t>(counters),
        static_cast<std::uint32_t>(history), static_cast<std::uint32_t>(btb));
}

}  // namespace

void registerTournamentFamily(PredictorRegistry& registry) {
    registry.add({"tournament", "tournament[:cN-hH-bM]",
                  "bimodal + gshare with a 2-bit chooser [McFarling 93] "
                  "(default c2048-h11-b2048)",
                  parseTournament});
}

}  // namespace asbr
