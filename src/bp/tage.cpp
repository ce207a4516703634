#include "bp/tage.hpp"

#include <algorithm>

#include "bp/registry.hpp"
#include "bp/token_params.hpp"
#include "util/metrics.hpp"

namespace asbr {

using bp_detail::isPow2;
using bp_detail::saturate2;

namespace {

constexpr std::uint32_t kMaxHistory = 64;

/// 3-bit saturating counter transitions; predicts taken at >= 4.
std::uint8_t saturate3(std::uint8_t counter, bool taken) {
    if (taken) return counter < 7 ? static_cast<std::uint8_t>(counter + 1) : counter;
    return counter > 0 ? static_cast<std::uint8_t>(counter - 1) : counter;
}

std::uint32_t log2Of(std::uint32_t pow2) {
    std::uint32_t bits = 0;
    while ((1u << bits) < pow2) ++bits;
    return bits;
}

}  // namespace

TagePredictor::TagePredictor(Config config)
    : config_(std::move(config)),
      base_(config_.baseCounters, 1),
      btb_(config_.btbEntries) {
    ASBR_ENSURE(!config_.historyLengths.empty() &&
                    config_.historyLengths.size() <= 8,
                "tage needs 1..8 tagged tables");
    std::uint32_t prev = 0;
    for (const std::uint32_t length : config_.historyLengths) {
        ASBR_ENSURE(length > prev && length <= kMaxHistory,
                    "tage history lengths must be increasing and <= 64");
        prev = length;
    }
    ASBR_ENSURE(isPow2(config_.taggedEntries) && isPow2(config_.baseCounters),
                "tage table sizes must be powers of two");
    ASBR_ENSURE(config_.tagBits >= 4 && config_.tagBits <= 15,
                "tage tag width must be 4..15");
    ASBR_ENSURE(config_.decayPeriod > 0, "tage decay period must be positive");
    tables_.assign(config_.historyLengths.size(),
                   std::vector<TaggedEntry>(config_.taggedEntries));
    tableHits_.assign(tables_.size(), 0);
    indexBits_ = log2Of(config_.taggedEntries);
    for (const std::uint32_t length : config_.historyLengths)
        folds_.push_back({{0, length, indexBits_},
                          {0, length, config_.tagBits},
                          {0, length, config_.tagBits - 1}});
}

std::string TagePredictor::name() const {
    std::string lengths;
    for (const std::uint32_t length : config_.historyLengths) {
        if (!lengths.empty()) lengths += ",";
        lengths += std::to_string(length);
    }
    return "tage-" + std::to_string(tables_.size()) + "x" +
           std::to_string(config_.taggedEntries) + "(h" + lengths + ")/btb-" +
           std::to_string(btb_.entries());
}

std::string TagePredictor::token() const {
    const Config defaults;
    const bool isDefault = config_.historyLengths == defaults.historyLengths &&
                           config_.taggedEntries == defaults.taggedEntries &&
                           config_.tagBits == defaults.tagBits &&
                           config_.baseCounters == defaults.baseCounters &&
                           config_.btbEntries == defaults.btbEntries &&
                           config_.decayPeriod == defaults.decayPeriod;
    if (isDefault) return "tage";
    std::string token = "tage:h";
    for (std::size_t i = 0; i < config_.historyLengths.size(); ++i) {
        if (i) token += "-";
        token += std::to_string(config_.historyLengths[i]);
    }
    if (config_.taggedEntries != defaults.taggedEntries)
        token += "-e" + std::to_string(config_.taggedEntries);
    if (config_.tagBits != defaults.tagBits)
        token += "-t" + std::to_string(config_.tagBits);
    if (config_.decayPeriod != defaults.decayPeriod)
        token += "-d" + std::to_string(config_.decayPeriod);
    return token;
}

std::size_t TagePredictor::tableIndex(int table, std::uint32_t pc) const {
    const std::uint32_t hashed =
        (pc >> 2) ^ (pc >> (2 + indexBits_)) ^
        folds_[static_cast<std::size_t>(table)].index.value ^
        (static_cast<std::uint32_t>(table) << 1);
    return hashed & (config_.taggedEntries - 1);
}

std::uint16_t TagePredictor::tableTag(int table, std::uint32_t pc) const {
    // Fold with a different width than the index so tag and index decorrelate.
    const TableFolds& folds = folds_[static_cast<std::size_t>(table)];
    const std::uint32_t hashed =
        (pc >> 2) ^ folds.tag.value ^ (folds.tagNarrow.value << 1);
    return static_cast<std::uint16_t>(hashed & ((1u << config_.tagBits) - 1));
}

TagePredictor::Match TagePredictor::findMatch(std::uint32_t pc) const {
    Match match;
    for (int table = static_cast<int>(tables_.size()) - 1; table >= 0; --table) {
        const std::size_t slot = tableIndex(table, pc);
        const TaggedEntry& entry = tables_[static_cast<std::size_t>(table)][slot];
        if (!entry.valid || entry.tag != tableTag(table, pc)) continue;
        if (match.provider < 0) {
            match.provider = table;
            match.providerSlot = slot;
        } else {
            match.alt = table;
            match.altSlot = slot;
            break;
        }
    }
    return match;
}

bool TagePredictor::predictionOf(const Match& match, std::uint32_t pc,
                                 bool alt) const {
    const int table = alt ? match.alt : match.provider;
    if (table < 0)
        return base_[(pc >> 2) & (base_.size() - 1)] >= 2;
    const std::size_t slot = alt ? match.altSlot : match.providerSlot;
    return tables_[static_cast<std::size_t>(table)][slot].ctr >= 4;
}

Prediction TagePredictor::predict(std::uint32_t pc) {
    const Match match = findMatch(pc);
    const bool taken = predictionOf(match, pc, /*alt=*/false);
    return {taken, taken ? btb_.lookup(pc) : std::nullopt};
}

void TagePredictor::update(std::uint32_t pc, bool taken, std::uint32_t target) {
    // History only advances here, so this recomputed match is exactly what
    // predict() returned for this branch.
    const Match match = findMatch(pc);
    const bool predTaken = predictionOf(match, pc, /*alt=*/false);
    const bool altTaken = predictionOf(match, pc, /*alt=*/true);

    if (match.provider < 0) {
        ++providerBase_;
    } else {
        ++providerTagged_;
        ++tableHits_[static_cast<std::size_t>(match.provider)];
    }

    // Train the provider; the usefulness counter records whether the
    // provider beat its alternative.
    if (match.provider < 0) {
        std::uint8_t& counter = base_[(pc >> 2) & (base_.size() - 1)];
        counter = saturate2(counter, taken);
    } else {
        TaggedEntry& entry =
            tables_[static_cast<std::size_t>(match.provider)][match.providerSlot];
        entry.ctr = saturate3(entry.ctr, taken);
        if (predTaken != altTaken) {
            if (predTaken == taken) {
                if (entry.useful < 3) ++entry.useful;
            } else if (entry.useful > 0) {
                --entry.useful;
            }
        }
    }

    // Allocate a longer-history entry on a misprediction.
    if (predTaken != taken &&
        match.provider + 1 < static_cast<int>(tables_.size())) {
        const int first = match.provider + 1;
        const int candidates = static_cast<int>(tables_.size()) - first;
        // Deterministic xorshift64 skews allocation towards shorter
        // histories without always picking the same table.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        const int start = first + static_cast<int>(rng_ % 2 == 0
                                                       ? 0
                                                       : rng_ / 2 % candidates);
        int chosen = -1;
        for (int offset = 0; offset < candidates; ++offset) {
            const int table = first + (start - first + offset) % candidates;
            const std::size_t slot = tableIndex(table, pc);
            if (tables_[static_cast<std::size_t>(table)][slot].useful == 0) {
                chosen = table;
                break;
            }
        }
        if (chosen >= 0) {
            TaggedEntry& entry =
                tables_[static_cast<std::size_t>(chosen)][tableIndex(chosen, pc)];
            entry.valid = true;
            entry.tag = tableTag(chosen, pc);
            entry.ctr = taken ? 4 : 3;  // weakly biased to the outcome
            entry.useful = 0;
            ++allocations_;
        } else {
            // All candidates were useful: age them so a later retry succeeds.
            for (int table = first; table < static_cast<int>(tables_.size());
                 ++table) {
                TaggedEntry& entry =
                    tables_[static_cast<std::size_t>(table)][tableIndex(table, pc)];
                if (entry.useful > 0) --entry.useful;
            }
            ++allocFailures_;
        }
    }

    for (TableFolds& folds : folds_) {
        const bool out = ((history_ >> (folds.index.length - 1)) & 1u) != 0;
        folds.index.shift(taken, out);
        folds.tag.shift(taken, out);
        folds.tagNarrow.shift(taken, out);
    }
    history_ = (history_ << 1) | (taken ? 1u : 0u);
    if (taken) btb_.update(pc, target);

    if (++updates_ % config_.decayPeriod == 0) {
        for (std::vector<TaggedEntry>& table : tables_)
            for (TaggedEntry& entry : table) entry.useful >>= 1;
        ++usefulDecays_;
    }
}

void TagePredictor::reset() {
    std::fill(base_.begin(), base_.end(), std::uint8_t{1});
    for (std::vector<TaggedEntry>& table : tables_)
        std::fill(table.begin(), table.end(), TaggedEntry{});
    history_ = 0;
    for (TableFolds& folds : folds_)
        folds.index.value = folds.tag.value = folds.tagNarrow.value = 0;
    updates_ = 0;
    rng_ = 0x9e3779b97f4a7c15ull;
    btb_.reset();
    std::fill(tableHits_.begin(), tableHits_.end(), 0ull);
    providerBase_ = providerTagged_ = 0;
    allocations_ = allocFailures_ = usefulDecays_ = 0;
}

std::uint64_t TagePredictor::storageBits() const {
    // Tagged entry: tag + 3-bit counter + 2-bit useful + valid bit.
    const std::uint64_t perEntry = config_.tagBits + 3 + 2 + 1;
    return base_.size() * 2ull +
           tables_.size() * config_.taggedEntries * perEntry + kMaxHistory +
           btb_.storageBits();
}

void TagePredictor::publishFamilyMetrics(MetricRegistry& registry) const {
    registry
        .counter("bp.tage.provider_base",
                 "tage updates where the bimodal base table provided the "
                 "prediction")
        .add(providerBase_);
    registry
        .counter("bp.tage.provider_tagged",
                 "tage updates where a tagged table provided the prediction")
        .add(providerTagged_);
    registry
        .counter("bp.tage.allocations",
                 "tage tagged entries allocated on mispredictions")
        .add(allocations_);
    registry
        .counter("bp.tage.alloc_failures",
                 "tage allocation attempts aborted because every candidate "
                 "entry was still useful")
        .add(allocFailures_);
    registry
        .counter("bp.tage.useful_decays",
                 "periodic tage usefulness-counter aging sweeps")
        .add(usefulDecays_);
}

std::unique_ptr<BranchPredictor> makeTage() {
    return std::make_unique<TagePredictor>(TagePredictor::Config{});
}

namespace {

std::unique_ptr<BranchPredictor> parseTage(const std::string& params,
                                           std::string& error) {
    TagePredictor::Config config;
    std::vector<std::string> segments = bp_detail::splitDash(params);
    bool inHistories = false;
    bool sawHistories = false;
    for (const std::string& seg : segments) {
        std::uint64_t value = 0;
        if (!seg.empty() && seg.front() >= '0' && seg.front() <= '9') {
            // Bare numeric segments extend the h list: "h8-16-32-64".
            if (!inHistories || !bp_detail::parseUint(seg, value)) {
                error = "tage: bare number '" + seg +
                        "' must follow an hL history list";
                return nullptr;
            }
            config.historyLengths.push_back(static_cast<std::uint32_t>(value));
            continue;
        }
        if (seg.size() < 2 || !bp_detail::parseUint(seg.substr(1), value)) {
            error = "tage: bad parameter '" + seg +
                    "' (want hL1-L2-..., eN, tW or dP)";
            return nullptr;
        }
        inHistories = false;
        switch (seg.front()) {
            case 'h':
                if (sawHistories) {
                    error = "tage: duplicate history list";
                    return nullptr;
                }
                config.historyLengths = {static_cast<std::uint32_t>(value)};
                inHistories = true;
                sawHistories = true;
                break;
            case 'e': config.taggedEntries = static_cast<std::uint32_t>(value); break;
            case 't': config.tagBits = static_cast<std::uint32_t>(value); break;
            case 'd': config.decayPeriod = value; break;
            default:
                error = "tage: unknown parameter '" + seg + "'";
                return nullptr;
        }
    }
    if (config.historyLengths.empty() || config.historyLengths.size() > 8) {
        error = "tage: need 1..8 history lengths";
        return nullptr;
    }
    std::uint32_t prev = 0;
    for (const std::uint32_t length : config.historyLengths) {
        if (length <= prev || length > kMaxHistory) {
            error = "tage: history lengths must be strictly increasing and "
                    "<= 64";
            return nullptr;
        }
        prev = length;
    }
    if (!isPow2(config.taggedEntries) || config.taggedEntries > (1u << 20)) {
        error = "tage: tagged entries must be a power of two (<= 1M)";
        return nullptr;
    }
    if (config.tagBits < 4 || config.tagBits > 15) {
        error = "tage: tag width must be 4..15";
        return nullptr;
    }
    if (config.decayPeriod == 0) {
        error = "tage: decay period must be positive";
        return nullptr;
    }
    return std::make_unique<TagePredictor>(std::move(config));
}

}  // namespace

void registerTageFamily(PredictorRegistry& registry) {
    registry.add({"tage", "tage[:hL1-L2-...[-eN][-tW][-dP]]",
                  "tagged geometric-history tables [Seznec & Michaud 06] "
                  "(default h8-16-32-64-e512-t9)",
                  parseTage});
}

}  // namespace asbr
