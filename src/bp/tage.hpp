// TAGE predictor family.  Registry token: `tage[:hL1-L2-...[-eN][-tW][-dP]]`.
#pragma once

#include <memory>

#include "bp/predictor.hpp"

namespace asbr {

class PredictorRegistry;

/// TAgged GEometric-history-length predictor [Seznec & Michaud 06]: a
/// bimodal base table backed by a series of tagged tables indexed with
/// geometrically increasing slices of global history.  The longest-history
/// table whose tag matches provides the prediction; 2-bit usefulness
/// counters arbitrate allocation-on-mispredict and are periodically aged.
///
/// The model keeps no speculative state: prediction is recomputed inside
/// update() against the same history predict() saw (history only advances
/// at resolve time), so results are deterministic at any thread count.
///
/// Each table hashes its history slice as the XOR of `width`-bit chunks of
/// the newest `length` history bits.  Those folds are kept as circular-shift
/// registers updated once per history shift [Seznec & Michaud 06], so a
/// lookup reads them instead of re-folding the history.
class TagePredictor final : public BranchPredictor {
public:
    struct Config {
        std::vector<std::uint32_t> historyLengths = {8, 16, 32, 64};
        std::uint32_t taggedEntries = 512;  ///< per tagged table, power of two
        std::uint32_t tagBits = 9;
        std::uint32_t baseCounters = 2048;
        std::uint32_t btbEntries = 2048;
        std::uint64_t decayPeriod = 262144;  ///< updates between u >>= 1 sweeps
    };

    explicit TagePredictor(Config config);
    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string token() const override;
    Prediction predict(std::uint32_t pc) override;
    void update(std::uint32_t pc, bool taken, std::uint32_t target) override;
    void reset() override;
    [[nodiscard]] std::uint64_t storageBits() const override;
    void publishFamilyMetrics(MetricRegistry& registry) const override;

    /// Per-table tag hit counts since reset (index 0 = shortest history);
    /// exposed for tests and the stats report.
    [[nodiscard]] const std::vector<std::uint64_t>& tableHits() const {
        return tableHits_;
    }

private:
    struct TaggedEntry {
        std::uint16_t tag = 0;
        std::uint8_t ctr = 3;     ///< 3-bit saturating, taken at >= 4
        std::uint8_t useful = 0;  ///< 2-bit usefulness
        bool valid = false;
    };

    struct Match {
        int provider = -1;  ///< table index, -1 = base
        int alt = -1;
        std::size_t providerSlot = 0;
        std::size_t altSlot = 0;
    };

    /// One folded view of the newest `length` history bits, `width` wide.
    struct FoldedHistory {
        std::uint32_t value = 0;
        std::uint32_t length = 0;
        std::uint32_t width = 0;

        /// Track the history shifting in `in` and dropping its bit `length`
        /// - 1 (`out`): rotate left by one, then fix up both end bits.
        void shift(bool in, bool out) {
            if (width == 0) return;
            value = ((value << 1) | (value >> (width - 1))) &
                    ((1u << width) - 1);
            value ^= static_cast<std::uint32_t>(in) ^
                     (static_cast<std::uint32_t>(out) << (length % width));
        }
    };

    /// Per-table folds of the current history: the index hash and the two
    /// tag hashes (tagBits and tagBits - 1 wide).
    struct TableFolds {
        FoldedHistory index, tag, tagNarrow;
    };

    [[nodiscard]] std::size_t tableIndex(int table, std::uint32_t pc) const;
    [[nodiscard]] std::uint16_t tableTag(int table, std::uint32_t pc) const;
    [[nodiscard]] Match findMatch(std::uint32_t pc) const;
    [[nodiscard]] bool predictionOf(const Match& match, std::uint32_t pc,
                                    bool alt) const;

    Config config_;
    std::uint32_t indexBits_ = 0;  ///< log2(taggedEntries)
    std::vector<std::uint8_t> base_;  // 2-bit counters, taken at >= 2
    std::vector<std::vector<TaggedEntry>> tables_;
    std::vector<TableFolds> folds_;  ///< per table, kept in step with history_
    std::uint64_t history_ = 0;
    std::uint64_t updates_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  // deterministic tie-breaker
    Btb btb_;

    std::vector<std::uint64_t> tableHits_;
    std::uint64_t providerBase_ = 0;
    std::uint64_t providerTagged_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t allocFailures_ = 0;
    std::uint64_t usefulDecays_ = 0;
};

[[nodiscard]] std::unique_ptr<BranchPredictor> makeTage();

/// Register `tage` (called once from PredictorRegistry::instance()).
void registerTageFamily(PredictorRegistry& registry);

}  // namespace asbr
