#include "driver/names.hpp"

#include "bp/registry.hpp"
#include "report/report.hpp"

namespace asbr::driver {

std::optional<BenchId> benchFromToken(const std::string& token) {
    for (const BenchId id : kAllBenchesExtended)
        if (token == benchToken(id)) return id;
    return std::nullopt;
}

const char* benchToken(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return "adpcm-enc";
        case BenchId::kAdpcmDecode: return "adpcm-dec";
        case BenchId::kG721Encode: return "g721-enc";
        case BenchId::kG721Decode: return "g721-dec";
        case BenchId::kG711Encode: return "g711-enc";
        case BenchId::kG711Decode: return "g711-dec";
    }
    return "?";
}

const char* benchTokenList() {
    return "adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec";
}

std::unique_ptr<BranchPredictor> makePredictorByToken(const std::string& token,
                                                      std::string* error) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    std::unique_ptr<BranchPredictor> predictor = registry.make(token);
    if (!predictor && error) *error = registry.unknownTokenMessage(token);
    return predictor;
}

std::optional<ValueStage> stageFromToken(const std::string& token) {
    for (const ValueStage stage :
         {ValueStage::kExEnd, ValueStage::kMemEnd, ValueStage::kCommit})
        if (token == valueStageName(stage)) return stage;
    return std::nullopt;
}

std::size_t paperBitEntries(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return 4;
        case BenchId::kAdpcmDecode: return 3;
        case BenchId::kG721Encode: return 16;
        case BenchId::kG721Decode: return 15;
        case BenchId::kG711Encode:
        case BenchId::kG711Decode: return 8;  // extension: not in the paper
    }
    return 16;
}

std::uint32_t thresholdFor(ValueStage stage) {
    switch (stage) {
        case ValueStage::kExEnd: return 2;
        case ValueStage::kMemEnd: return 3;
        case ValueStage::kCommit: return 4;
    }
    return 3;
}

}  // namespace asbr::driver
