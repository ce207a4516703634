#include "profile/profiler.hpp"

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "sim/functional.hpp"

namespace asbr {

double BranchProfile::foldableFraction(std::uint32_t threshold) const {
    if (execs == 0) return 0.0;
    std::uint64_t n = 0;
    switch (threshold) {
        case 2: n = distGe2; break;
        case 3: n = distGe3; break;
        case 4: n = distGe4; break;
        default: ASBR_ENSURE(false, "threshold must be 2, 3 or 4");
    }
    return static_cast<double>(n) / static_cast<double>(execs);
}

namespace {

/// Index of a text-segment PC into per-text-word arrays.
std::size_t textIndex(const Program& program, std::uint32_t pc) {
    return (pc - program.textBase) / kInstrBytes;
}

/// The executed sites of a per-text-word array, keyed and labelled by PC.
template <class Site>
std::map<std::uint32_t, Site> executedSites(const Program& program,
                                            std::vector<Site>& sites) {
    std::map<std::uint32_t, Site> out;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        if (sites[i].execs == 0) continue;
        sites[i].pc =
            program.textBase + static_cast<std::uint32_t>(i) * kInstrBytes;
        out.emplace_hint(out.end(), sites[i].pc, sites[i]);
    }
    return out;
}

/// The branch profile's walk observer: per-site executions, directions and
/// def-to-branch distances.
class BranchCounter {
public:
    explicit BranchCounter(const Program& program)
        : program_(program), sites_(program.code.size()) {
        // Registers never written count as defined "infinitely long ago"
        // (machine reset), so branches on them are always foldable.
        lastDef_.fill(-(1LL << 40));
    }

    void operator()(const DecodedOp& dec, const ArchState& state) {
        if (dec.condBranch) {
            BranchProfile& bp = sites_[textIndex(program_, dec.pc)];
            ++bp.execs;
            // A branch writes no register: rs still holds its operand.
            if (evalCond(dec.cond, state.reg(dec.ins.rs))) ++bp.taken;
            const auto distance =
                static_cast<std::uint64_t>(index_ - lastDef_[dec.ins.rs]);
            if (distance >= 2) ++bp.distGe2;
            if (distance >= 3) ++bp.distGe3;
            if (distance >= 4) ++bp.distGe4;
            if (distance < bp.minDistance) bp.minDistance = distance;
        }
        lastDef_[dec.writesDest ? dec.dest : kNumRegs] = index_;
        ++index_;
    }

    [[nodiscard]] ProgramProfile finish(std::uint64_t instructions) {
        ProgramProfile profile;
        profile.instructions = instructions;
        profile.branches = executedSites(program_, sites_);
        return profile;
    }

private:
    const Program& program_;
    /// Dynamic index of the last committed write to each register, plus a
    /// slot the non-writers write to.
    std::array<std::int64_t, kNumRegs + 1> lastDef_{};
    std::int64_t index_ = 0;
    std::vector<BranchProfile> sites_;
};

/// profilePredictions' walk observer, fed conditional branches only: plays
/// its predictor (reset on construction) over them and scores each redirect.
class PredictionScorer {
public:
    PredictionScorer(const Program& program, BranchPredictor& predictor)
        : program_(program),
          predictor_(predictor),
          sites_(program.code.size()) {
        profile_.predictorToken = predictor.token();
        predictor.reset();
    }

    void operator()(const DecodedOp& dec, const ArchState& state) {
        const Prediction prediction = predictor_.predict(dec.pc);
        // Score like the pipeline: the redirect must hit the architectural
        // successor, so taken guesses need the BTB to supply the target.
        const std::uint32_t predictedNext = prediction.effectiveTaken()
                                                ? *prediction.target
                                                : dec.fallthrough;
        SitePrediction& site = sites_[textIndex(program_, dec.pc)];
        ++site.execs;
        ++profile_.branches;
        if (predictedNext != state.pc) {
            ++site.mispredicts;
            ++profile_.mispredicts;
        }
        // A branch writes no register: rs still holds its operand.
        predictor_.update(dec.pc, evalCond(dec.cond, state.reg(dec.ins.rs)),
                          dec.target);
    }

    [[nodiscard]] PredictionProfile finish() {
        profile_.sites = executedSites(program_, sites_);
        return std::move(profile_);
    }

private:
    const Program& program_;
    BranchPredictor& predictor_;
    PredictionProfile profile_;
    std::vector<SitePrediction> sites_;
};

}  // namespace

ProgramProfile profileProgram(const Program& program, Memory& memory,
                              std::uint64_t maxInstructions) {
    return profileWalk(program, memory, {}, maxInstructions).program;
}

std::map<std::uint32_t, double> PredictionProfile::accuracyMap() const {
    std::map<std::uint32_t, double> out;
    for (const auto& [pc, site] : sites) out[pc] = site.accuracy();
    return out;
}

PredictionProfile profilePredictions(const Program& program, Memory& memory,
                                     BranchPredictor& predictor,
                                     std::uint64_t maxInstructions) {
    PredictionScorer scorer(program, predictor);
    FunctionalSim sim(program, memory);
    (void)sim.run(maxInstructions,
                  [&](const DecodedOp& dec, const ArchState& state) {
                      if (dec.condBranch) scorer(dec, state);
                  });
    return scorer.finish();
}

WalkProfiles profileWalk(const Program& program, Memory& memory,
                         std::span<BranchPredictor* const> predictors,
                         std::uint64_t maxInstructions,
                         const std::function<void()>& poll) {
    BranchCounter branches(program);
    std::vector<PredictionScorer> scorers;
    scorers.reserve(predictors.size());
    for (BranchPredictor* predictor : predictors)
        scorers.emplace_back(program, *predictor);
    FunctionalSim sim(program, memory);
    const std::uint64_t instructions =
        sim.run(maxInstructions,
                [&](const DecodedOp& dec, const ArchState& state) {
                    branches(dec, state);
                    if (dec.condBranch)
                        for (PredictionScorer& scorer : scorers)
                            scorer(dec, state);
                },
                poll)
            .instructions;
    WalkProfiles out;
    out.program = branches.finish(instructions);
    for (PredictionScorer& scorer : scorers)
        out.predictions.push_back(scorer.finish());
    return out;
}

}  // namespace asbr
