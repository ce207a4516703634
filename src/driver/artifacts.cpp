#include "driver/artifacts.hpp"

#include <algorithm>
#include <utility>

#include "asbr/extract.hpp"
#include "driver/names.hpp"
#include "util/ensure.hpp"
#include "workloads/input_gen.hpp"

namespace asbr::driver {

Prepared prepare(BenchId id, bool scheduled, std::uint64_t seed,
                 std::size_t samples) {
    Prepared prepared;
    prepared.id = id;
    prepared.scheduled = scheduled;
    prepared.program = buildBench(id, scheduled);
    std::vector<std::int16_t> pcm =
        generateSpeech(std::min(samples, benchMaxSamples(id)), seed);
    if (benchIsEncoder(id)) {
        prepared.pcm = std::move(pcm);
        return prepared;
    }
    // Decoders consume the matching encoder's output, as in MediaBench; the
    // speech itself is not kept.
    switch (id) {
        case BenchId::kAdpcmDecode:
            prepared.codes = adpcmEncodeRef(pcm);
            break;
        case BenchId::kG721Decode:
            prepared.codes = g721EncodeRef(pcm);
            break;
        case BenchId::kG711Decode:
            prepared.codes = g711EncodeRef(pcm);
            break;
        default:
            ASBR_ENSURE(false, "prepare: unexpected decoder");
    }
    return prepared;
}

Memory makeMemory(const Prepared& prepared) {
    Memory memory;
    memory.loadProgram(prepared.program);
    if (benchIsEncoder(prepared.id)) {
        loadPcmInput(memory, prepared.program, prepared.pcm);
    } else {
        loadCodeInput(memory, prepared.program, prepared.codes);
    }
    return memory;
}

PipelineResult runPipeline(const Prepared& prepared, BranchPredictor& predictor,
                           AsbrUnit* unit, const PipelineConfig& config) {
    Memory memory = makeMemory(prepared);
    predictor.reset();
    PipelineSim sim(prepared.program, memory, predictor, config, unit);
    PipelineResult result = sim.run();
    ASBR_ENSURE(result.exited && result.exitCode == 0,
                "benchmark did not exit cleanly");
    return result;
}

SampledResult runSampledPipeline(const Prepared& prepared,
                                 BranchPredictor& predictor, AsbrUnit* unit,
                                 const FastForwardLog& log,
                                 const PipelineConfig& config) {
    Memory memory = makeMemory(prepared);
    predictor.reset();
    SampledResult result =
        runSampled(prepared.program, memory, predictor, log, config, unit);
    ASBR_ENSURE(result.exited && result.exitCode == 0,
                "benchmark did not exit cleanly");
    return result;
}

SampledResult runSampledPipeline(const Prepared& prepared,
                                 BranchPredictor& predictor, AsbrUnit* unit,
                                 const SamplingConfig& sampling,
                                 const PipelineConfig& config) {
    Memory memory = makeMemory(prepared);
    const FastForwardLog log = FastForwardLog::record(
        prepared.program, memory, sampling, config.maxCycles);
    return runSampledPipeline(prepared, predictor, unit, log, config);
}

WorkloadArtifacts::WorkloadArtifacts(const WorkloadKey& key)
    : key_(key),
      prepared_(prepare(key.workload, key.scheduled, key.seed, key.samples)) {}

void WorkloadArtifacts::registerPrediction(const std::string& token) const {
    std::lock_guard<std::mutex> lock(registryMutex_);
    registered_.insert(token);
}

std::shared_ptr<const WorkloadArtifacts::ProfileWalk>
WorkloadArtifacts::sharedWalk(const std::function<void()>& poll) const {
    return walk_.get(true, [&] {
        std::vector<std::string> tokens;
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            tokens.assign(registered_.begin(), registered_.end());
        }
        // A token that names no predictor rides along with nothing: its own
        // request walks alone and reports the error.
        std::vector<std::unique_ptr<BranchPredictor>> owned;
        std::vector<BranchPredictor*> predictors;
        std::vector<std::string> carried;
        for (const std::string& token : tokens) {
            auto predictor = makePredictorByToken(token);
            if (predictor == nullptr) continue;
            predictors.push_back(predictor.get());
            owned.push_back(std::move(predictor));
            carried.push_back(token);
        }
        Memory memory = makeMemory(prepared_);
        WalkProfiles profiles = profileWalk(prepared_.program, memory,
                                            predictors,
                                            PipelineConfig{}.maxCycles, poll);
        auto walk = std::make_shared<ProfileWalk>();
        walk->program = std::move(profiles.program);
        for (std::size_t i = 0; i < carried.size(); ++i)
            walk->predictions.emplace(
                carried[i], std::make_shared<const PredictionProfile>(
                                std::move(profiles.predictions[i])));
        return std::shared_ptr<const ProfileWalk>(std::move(walk));
    });
}

const ProgramProfile& WorkloadArtifacts::profile() const {
    return profile({});
}

const ProgramProfile& WorkloadArtifacts::profile(
    const std::function<void()>& poll) const {
    // The walk lives in walk_ as long as this object does.
    return sharedWalk(poll)->program;
}

std::vector<std::string> WorkloadArtifacts::profileWalkTokens() const {
    std::vector<std::string> tokens;
    for (const auto& entry : sharedWalk({})->predictions)
        tokens.push_back(entry.first);
    return tokens;
}

const PredictionProfile& WorkloadArtifacts::baselineAccuracy() const {
    // "bimodal" is bimodal-2048 with a 2048-entry BTB.
    return *predictionProfile("bimodal");
}

std::shared_ptr<const PredictionProfile> WorkloadArtifacts::predictionProfile(
    const std::string& token) const {
    return predictions_.get(token, [&] {
        bool registered = false;
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            registered = registered_.count(token) != 0;
        }
        if (registered) {
            const auto walk = sharedWalk({});
            const auto it = walk->predictions.find(token);
            if (it != walk->predictions.end()) return it->second;
        }
        std::string error;
        auto predictor = makePredictorByToken(token, &error);
        ASBR_ENSURE(predictor != nullptr, error);
        Memory memory = makeMemory(prepared_);
        return std::make_shared<const PredictionProfile>(profilePredictions(
            prepared_.program, memory, *predictor, PipelineConfig{}.maxCycles));
    });
}

std::shared_ptr<const FastForwardLog> WorkloadArtifacts::fastForwardLog(
    const SamplingConfig& sampling,
    const std::function<void()>& poll) const {
    return logs_.get(sampling, [&] {
        Memory memory = makeMemory(prepared_);
        return std::make_shared<const FastForwardLog>(
            FastForwardLog::record(prepared_.program, memory, sampling,
                                   PipelineConfig{}.maxCycles, poll));
    });
}

SelectionArtifacts::SelectionArtifacts(
    std::shared_ptr<const WorkloadArtifacts> workload, const SelectionKey& key)
    : workload_(std::move(workload)), key_(key) {
    ASBR_ENSURE(key_.bitEntries > 0, "selection: BIT capacity must be resolved");
    ASBR_ENSURE(!(key_.staticFolds && key_.predictorAware),
                "selection: staticFolds and predictorAware are exclusive");
    ASBR_ENSURE(!key_.predictorAware || !key_.predictorToken.empty(),
                "selection: predictor-aware needs a predictor token");
    const ProgramProfile& profile = workload_->profile();
    // The baseline-era comparison of predictor-aware selection needs the
    // bimodal reference even when useAccuracy is off — reclaimed slots are
    // measured against the policy the paper's figures used.
    const std::map<std::uint32_t, double> accuracy =
        key_.useAccuracy || key_.predictorAware
            ? workload_->baselineAccuracy().accuracyMap()
            : std::map<std::uint32_t, double>{};
    SelectionConfig config;
    config.bitCapacity = key_.bitEntries;
    config.threshold = thresholdFor(key_.updateStage);
    const Program& program = workload_->prepared().program;
    if (key_.predictorAware) {
        PredictorAwareSelection aware = selectBranchesPredictorAware(
            program, profile,
            *workload_->predictionProfile(key_.predictorToken), accuracy,
            config);
        awareMetrics_.countSelection(aware);
        candidates_ = std::move(aware.folded);
        hardness_ = std::move(aware.hardness);
    } else if (key_.staticFolds) {
        FoldSelection selection =
            selectWithStaticVerdicts(program, profile, accuracy, config);
        candidates_ = std::move(selection.dynamic);
        staticCandidates_ = std::move(selection.statics);
        bitSlotsReclaimed_ = selection.bitSlotsReclaimed;
    } else {
        candidates_ =
            selectFoldableBranches(program, profile, accuracy, config);
    }
    infos_ = extractBranchInfos(program, candidatePcs(candidates_));
    staticEntries_.reserve(staticCandidates_.size());
    for (const StaticFoldCandidate& s : staticCandidates_)
        staticEntries_.push_back(extractStaticFold(program, s.pc, s.taken));
}

std::unique_ptr<AsbrUnit> SelectionArtifacts::makeUnit(
    bool parityProtected) const {
    AsbrConfig config;
    config.updateStage = key_.updateStage;
    config.bitCapacity = key_.bitEntries;
    config.parityProtected = parityProtected;
    auto unit = std::make_unique<AsbrUnit>(config);
    unit->loadBank(0, infos_);
    if (!staticEntries_.empty())
        unit->loadStaticFolds(staticEntries_, bitSlotsReclaimed_);
    return unit;
}

std::shared_ptr<const WorkloadArtifacts> ArtifactCache::workload(
    const WorkloadKey& key) {
    return workloads_.get(key, [&key] {
        return std::make_shared<const WorkloadArtifacts>(key);
    });
}

std::shared_ptr<const SelectionArtifacts> ArtifactCache::selection(
    const SelectionKey& key) {
    return selections_.get(key, [this, &key] {
        return std::make_shared<const SelectionArtifacts>(workload(key.workload),
                                                          key);
    });
}

ArtifactCache::Stats ArtifactCache::stats() const {
    Stats stats;
    stats.workloadComputes = workloads_.computes();
    stats.selectionComputes = selections_.computes();
    stats.hits = workloads_.hits() + selections_.hits();
    return stats;
}

}  // namespace asbr::driver
