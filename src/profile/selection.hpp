// Branch selection for ASBR (paper Section 6).
//
// "Frequently executed, hard-to-predict branches are especially propitious
// to resolve by using ASBR."  The selector scores every extractable branch
// by expected benefit — dynamic executions that are both foldable at the
// configured threshold *and* likely mispredicted by the reference predictor
// — and returns the top `bitCapacity` candidates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asm/program.hpp"
#include "profile/profiler.hpp"
#include "util/metrics.hpp"

namespace asbr {

/// Selection policy knobs.
struct SelectionConfig {
    std::size_t bitCapacity = 16;   ///< BIT entries available
    std::uint32_t threshold = 3;    ///< 2 / 3 / 4, per the BDT update stage
    double minExecFraction = 1e-4;  ///< ignore branches rarer than this
    double minFoldableFraction = 0.5;  ///< require mostly-foldable branches
    /// Run the static fold-legality verifier over the candidates: branches
    /// with an Illegal verdict are dropped (they can never enter the BIT),
    /// and ProvablySafe branches win score ties over SafeOnProfiledPaths
    /// ones.  The profile supplies the dynamic evidence, so profiled-clean
    /// branches survive even when an unprofiled short path exists.
    bool requireStaticallySafe = false;
    /// Static fold table entries available (selectWithStaticVerdicts).
    std::size_t staticCapacity = 16;
};

/// A scored candidate branch.
struct Candidate {
    std::uint32_t pc = 0;
    std::uint64_t execs = 0;
    double takenRate = 0.0;
    double accuracy = 1.0;          ///< reference predictor accuracy (1 = easy)
    double foldableFraction = 0.0;  ///< at the configured threshold
    double score = 0.0;             ///< expected mispredictions removed
    /// Static verdict; populated when requireStaticallySafe is set.
    std::optional<analysis::FoldLegality> verdict;
};

/// Score and rank foldable branches.  `accuracyByPc` supplies the reference
/// predictor's per-site accuracy (profilePredictions' replay of the
/// bimodal-2048 baseline); sites missing from the map are treated as
/// never-executed-under-prediction and get accuracy 1 (no benefit).
[[nodiscard]] std::vector<Candidate> selectFoldableBranches(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config = {});

/// The PCs of the selected candidates, ready for extractBranchInfos().
[[nodiscard]] std::vector<std::uint32_t> candidatePcs(
    const std::vector<Candidate>& candidates);

/// A branch the abstract interpreter proved single-direction: it folds from
/// the static table instead of occupying a BIT slot.
struct StaticFoldCandidate {
    std::uint32_t pc = 0;
    bool taken = false;       ///< the constant direction
    std::uint64_t execs = 0;  ///< profiled executions (static-table ranking)
};

/// The two fold classes of the full selection policy.
struct FoldSelection {
    /// BIT-resident candidates, scored exactly as selectFoldableBranches —
    /// but with statically-decided branches excluded, so the slots they
    /// would have used go to the next-hottest dynamic branches.
    std::vector<Candidate> dynamic;
    /// Statically-decided branches, hottest-first, capped at staticCapacity.
    std::vector<StaticFoldCandidate> statics;
    /// How many BIT slots the dynamic-only policy would have spent on
    /// branches now served statically (the occupancy the analysis freed).
    std::uint64_t bitSlotsReclaimed = 0;
};

/// Two-class selection: statically-decided branches (always/never-taken
/// verdicts from src/analysis/absint) go to the static fold table; the BIT
/// is then filled as before from the remaining candidates.
[[nodiscard]] FoldSelection selectWithStaticVerdicts(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config = {});

/// Profile-free, cost-aware selection driven by the static timing engine.
///
/// `ranking` is the per-branch worst-case misprediction cost from
/// analysis::timing::WcetEngine::compute (execution bound x penalty).
/// Statically-decided branches go to the static fold table as usual (ranked
/// by their execution bound instead of profiled heat); the BIT is filled
/// with the top remaining *ProvablySafe* branches by total static cost.
/// Branches with zero static cost (unreachable on any bounded path) are
/// skipped.  Candidate::execs carries the execution bound and
/// Candidate::score the total cost; the profile-only fields (takenRate,
/// accuracy, foldableFraction) stay at their defaults.
[[nodiscard]] FoldSelection selectBranchesByStaticCost(
    const Program& program,
    const std::vector<analysis::timing::BranchCostRecord>& ranking,
    const SelectionConfig& config = {});

/// Non-predictability taxonomy: why a branch site does or does not deserve
/// a BIT slot once a strong history-based predictor is the fallback.
enum class BranchHardness {
    kColdSite = 0,        ///< below the execution floor — never worth a slot
    kWellPredicted,       ///< both predictors already get it right
    kHistoryPredictable,  ///< the strong predictor fixes what the baseline lost
    kHardToPredict,       ///< the strong predictor demonstrably loses — fold it
};

[[nodiscard]] const char* hardnessName(BranchHardness hardness);

/// Thresholds for the hardness taxonomy.
struct PredictorAwareConfig {
    /// A site whose accuracy reaches this under a predictor counts as won
    /// by that predictor.
    double wellPredictedAccuracy = 0.99;
};

/// Result of predictor-aware selection.
struct PredictorAwareSelection {
    /// BIT-resident candidates: hard-to-predict sites only, scored against
    /// the strong predictor's per-site accuracy.
    std::vector<Candidate> folded;
    /// Hardness class for every site that passed the structural filters
    /// (extractable, hot enough is judged per-class; cold sites included).
    std::map<std::uint32_t, BranchHardness> hardness;
    /// The selection the bimodal-era policy (same config, baseline
    /// accuracy, no hardness filter) would have made.
    std::vector<Candidate> baselineEra;
    /// BIT slots the bimodal-era policy spent on sites the strong predictor
    /// now wins — capacity handed back to the predictor.
    std::uint64_t reclaimedSlots = 0;
    std::vector<std::uint32_t> reclaimedPcs;

    [[nodiscard]] std::uint64_t countOf(BranchHardness h) const;
    /// True when `folded` is a subset of the bimodal-era selection.
    [[nodiscard]] bool foldsSubsetOfBaselineEra() const;
};

/// Predictor-aware selection: fold only branches the strong fallback
/// predictor demonstrably loses.  `predictions` is the strong predictor's
/// per-site record (profilePredictions); `baselineAccuracyByPc` the
/// bimodal-2048 reference map the pre-existing policy consulted.  Sites the
/// strong predictor already wins are classified kWellPredicted /
/// kHistoryPredictable and left to the predictor; the freed BIT occupancy
/// is reported as reclaimedSlots.
[[nodiscard]] PredictorAwareSelection selectBranchesPredictorAware(
    const Program& program, const ProgramProfile& profile,
    const PredictionProfile& predictions,
    const std::map<std::uint32_t, double>& baselineAccuracyByPc,
    const SelectionConfig& config = {},
    const PredictorAwareConfig& aware = {});

/// Counters one predictor-aware selection publishes (the
/// `selection.predictor_aware_*` namespace).  A default-constructed
/// snapshot publishes zeros so `asbr-stats counters` can enumerate them.
struct PredictorAwareSelectionMetrics {
    std::uint64_t folded = 0;         ///< BIT slots filled (hard sites)
    std::uint64_t keptForPredictor = 0;  ///< sites left to the predictor
    std::uint64_t hardSites = 0;      ///< sites classified hard-to-predict
    std::uint64_t reclaimedSlots = 0; ///< bimodal-era slots handed back

    void countSelection(const PredictorAwareSelection& selection);
    void publish(MetricRegistry& registry) const;
};

/// Counters one cost-aware selection publishes (the `selection.static_cost_*`
/// namespace).  A default-constructed snapshot publishes zeros so
/// `asbr-stats counters` can enumerate the names.
struct StaticCostSelectionMetrics {
    std::uint64_t candidates = 0;   ///< branches in the input cost ranking
    std::uint64_t staticFolds = 0;  ///< static-table folds selected
    std::uint64_t bitResidents = 0; ///< BIT slots filled by total static cost

    /// Fill the selection-side counters from a selection result.
    void countSelection(const FoldSelection& selection);
    void publish(MetricRegistry& registry) const;
};

}  // namespace asbr
