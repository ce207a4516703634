// Branch profiling over a functional run.
//
// For every conditional branch the profiler records execution count, taken
// count, and the dynamic def-to-branch distance distribution against the
// three ASBR thresholds (2 = EX-end update, 3 = post-EX forwarding,
// 4 = commit update).  The distance is measured in committed instructions
// between the last producer of the branch's condition register and the
// branch itself — the paper's "distance" property (Section 5).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "bp/predictor.hpp"
#include "mem/memory.hpp"

namespace asbr {

/// Dynamic statistics for one conditional-branch site.
struct BranchProfile {
    std::uint32_t pc = 0;
    std::uint64_t execs = 0;
    std::uint64_t taken = 0;
    /// Executions whose predicate-defining instruction was at least
    /// N dynamic instructions before the branch.
    std::uint64_t distGe2 = 0;
    std::uint64_t distGe3 = 0;
    std::uint64_t distGe4 = 0;
    std::uint64_t minDistance = UINT64_MAX;  ///< smallest observed distance

    [[nodiscard]] double takenRate() const {
        return execs == 0 ? 0.0 : static_cast<double>(taken) / static_cast<double>(execs);
    }
    /// Fraction of executions foldable at a given threshold (2, 3 or 4).
    [[nodiscard]] double foldableFraction(std::uint32_t threshold) const;
};

/// Whole-program profile.
struct ProgramProfile {
    std::uint64_t instructions = 0;
    std::map<std::uint32_t, BranchProfile> branches;
};

/// Run the program functionally and collect the branch profile.
/// `memory` must already hold the program image and any workload input.
[[nodiscard]] ProgramProfile profileProgram(const Program& program, Memory& memory,
                                            std::uint64_t maxInstructions =
                                                500'000'000);

/// Per-site outcome of playing a direction predictor over the committed
/// conditional-branch stream.
struct SitePrediction {
    std::uint32_t pc = 0;
    std::uint64_t execs = 0;
    std::uint64_t mispredicts = 0;  ///< wrong fetch redirects (pipeline rules)

    [[nodiscard]] double accuracy() const {
        return execs == 0 ? 0.0
                          : static_cast<double>(execs - mispredicts) /
                                static_cast<double>(execs);
    }
};

/// Prediction profile of one program run under one predictor — what the
/// fold-selection layer consults to learn which sites a predictor loses.
struct PredictionProfile {
    std::string predictorToken;  ///< registry token that reproduces the run
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::map<std::uint32_t, SitePrediction> sites;

    [[nodiscard]] double accuracy() const {
        return branches == 0 ? 0.0
                             : static_cast<double>(branches - mispredicts) /
                                   static_cast<double>(branches);
    }
    /// Per-site accuracy map, the shape branch selection consumes.
    [[nodiscard]] std::map<std::uint32_t, double> accuracyMap() const;
};

/// Play `predictor` over the committed conditional-branch stream of a
/// functional run and record per-site misprediction counts.  A prediction
/// counts as correct only when the resulting fetch redirect matches the
/// architectural successor — a taken guess with a cold or aliased BTB
/// target is a mispredict, exactly like the pipeline scores it.  The
/// predictor is reset first; `memory` must hold the program image and
/// workload input.
[[nodiscard]] PredictionProfile profilePredictions(
    const Program& program, Memory& memory, BranchPredictor& predictor,
    std::uint64_t maxInstructions = 500'000'000);

/// The branch profile and one prediction profile per predictor, from one
/// functional walk.
struct WalkProfiles {
    ProgramProfile program;
    std::vector<PredictionProfile> predictions;  ///< in predictor order
};

/// profileProgram and one profilePredictions per entry of `predictors` in a
/// single decode-cached walk: each profile equals, field for field, what its
/// own walk gives.  `poll`, when set, runs at least once every
/// kWalkPollInterval (sim/functional.hpp) instructions and may throw to
/// abandon the walk.
[[nodiscard]] WalkProfiles profileWalk(
    const Program& program, Memory& memory,
    std::span<BranchPredictor* const> predictors,
    std::uint64_t maxInstructions = 500'000'000,
    const std::function<void()>& poll = {});

}  // namespace asbr
