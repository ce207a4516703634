#include "profile/selection.hpp"

#include <algorithm>
#include <unordered_set>

#include "asbr/extract.hpp"

namespace asbr {

namespace {

/// The scoring loop shared by both selection entry points.  `exclude`
/// removes PCs already served by the static fold table (nullptr: none).
std::vector<Candidate> selectImpl(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config,
    const std::unordered_set<std::uint32_t>* exclude) {
    ASBR_ENSURE(config.threshold >= 2 && config.threshold <= 4,
                "threshold must be 2, 3 or 4");
    std::vector<Candidate> candidates;
    const auto minExecs = static_cast<std::uint64_t>(
        config.minExecFraction * static_cast<double>(profile.instructions));

    std::optional<analysis::FoldLegalityVerifier> verifier;
    analysis::VerifyConfig verifyConfig;
    analysis::ObservedMinDistances observed;
    if (config.requireStaticallySafe) {
        verifier.emplace(program);
        verifyConfig.threshold = config.threshold;
        for (const auto& [pc, bp] : profile.branches)
            if (bp.execs > 0) observed.emplace(pc, bp.minDistance);
    }

    for (const auto& [pc, bp] : profile.branches) {
        if (exclude != nullptr && exclude->count(pc) != 0) continue;
        if (bp.execs < std::max<std::uint64_t>(minExecs, 1)) continue;
        if (!isExtractableBranch(program, pc)) continue;
        const double foldable = bp.foldableFraction(config.threshold);
        if (foldable < config.minFoldableFraction) continue;

        Candidate c;
        c.pc = pc;
        c.execs = bp.execs;
        c.takenRate = bp.takenRate();
        const auto it = accuracyByPc.find(pc);
        c.accuracy = it == accuracyByPc.end() ? 1.0 : it->second;
        c.foldableFraction = foldable;
        // Expected benefit: foldable executions weighted by how often the
        // reference predictor gets this site wrong, plus a small term for the
        // pipeline-occupancy saving every fold provides regardless of
        // predictability (the folded branch never issues).
        c.score = static_cast<double>(c.execs) * foldable *
                  ((1.0 - c.accuracy) + 0.05);
        if (verifier) {
            const auto v = verifier->verdictFor(pc, verifyConfig, &observed);
            if (v.verdict == analysis::FoldLegality::kIllegal) continue;
            c.verdict = v.verdict;
        }
        candidates.push_back(c);
    }

    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.score != b.score) return a.score > b.score;
                  if (a.verdict != b.verdict) return a.verdict < b.verdict;
                  return a.pc < b.pc;
              });
    if (candidates.size() > config.bitCapacity)
        candidates.resize(config.bitCapacity);
    return candidates;
}

}  // namespace

std::vector<Candidate> selectFoldableBranches(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config) {
    return selectImpl(program, profile, accuracyByPc, config, nullptr);
}

std::vector<std::uint32_t> candidatePcs(const std::vector<Candidate>& candidates) {
    std::vector<std::uint32_t> pcs;
    pcs.reserve(candidates.size());
    for (const Candidate& c : candidates) pcs.push_back(c.pc);
    return pcs;
}

FoldSelection selectWithStaticVerdicts(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config) {
    FoldSelection selection;

    // Statically-decided branches need no score: with zero BDT dependence
    // the fold succeeds on every execution, so any executed branch is pure
    // win.  Rank by heat to make the staticCapacity cut deterministic.
    const analysis::FoldLegalityVerifier verifier(program);
    const analysis::ValueAnalysis& va = verifier.values();
    for (const auto& [pc, bp] : profile.branches) {
        if (bp.execs == 0) continue;
        if (!isExtractableBranch(program, pc)) continue;
        const auto dir = va.directionAt(verifier.cfg().indexOf(pc));
        if (dir != analysis::BranchDirection::kAlwaysTaken &&
            dir != analysis::BranchDirection::kNeverTaken)
            continue;
        selection.statics.push_back(
            {pc, dir == analysis::BranchDirection::kAlwaysTaken, bp.execs});
    }
    std::sort(selection.statics.begin(), selection.statics.end(),
              [](const StaticFoldCandidate& a, const StaticFoldCandidate& b) {
                  if (a.execs != b.execs) return a.execs > b.execs;
                  return a.pc < b.pc;
              });
    if (selection.statics.size() > config.staticCapacity)
        selection.statics.resize(config.staticCapacity);

    std::unordered_set<std::uint32_t> staticPcs;
    for (const StaticFoldCandidate& s : selection.statics)
        staticPcs.insert(s.pc);

    // BIT occupancy the old policy would have spent on now-static branches.
    for (const Candidate& c :
         selectImpl(program, profile, accuracyByPc, config, nullptr))
        if (staticPcs.count(c.pc) != 0) ++selection.bitSlotsReclaimed;

    selection.dynamic =
        selectImpl(program, profile, accuracyByPc, config, &staticPcs);
    return selection;
}

FoldSelection selectBranchesByStaticCost(
    const Program& program,
    const std::vector<analysis::timing::BranchCostRecord>& ranking,
    const SelectionConfig& config) {
    ASBR_ENSURE(config.threshold >= 2 && config.threshold <= 4,
                "threshold must be 2, 3 or 4");
    FoldSelection selection;
    std::map<std::uint32_t, const analysis::timing::BranchCostRecord*> byPc;
    for (const auto& r : ranking) byPc.emplace(r.pc, &r);

    const analysis::FoldLegalityVerifier verifier(program);
    const analysis::ValueAnalysis& va = verifier.values();
    analysis::VerifyConfig verifyConfig;
    verifyConfig.threshold = config.threshold;

    // Statically-decided branches fold from the static table on every
    // execution; rank them by worst-case execution bound so the
    // staticCapacity cut favours the branches the longest path crosses most.
    for (const std::uint32_t pc : allConditionalBranches(program)) {
        const auto dir = va.directionAt(verifier.cfg().indexOf(pc));
        if (dir != analysis::BranchDirection::kAlwaysTaken &&
            dir != analysis::BranchDirection::kNeverTaken)
            continue;
        const auto it = byPc.find(pc);
        selection.statics.push_back(
            {pc, dir == analysis::BranchDirection::kAlwaysTaken,
             it == byPc.end() ? 0 : it->second->execBound});
    }
    std::sort(selection.statics.begin(), selection.statics.end(),
              [](const StaticFoldCandidate& a, const StaticFoldCandidate& b) {
                  if (a.execs != b.execs) return a.execs > b.execs;
                  return a.pc < b.pc;
              });
    if (selection.statics.size() > config.staticCapacity)
        selection.statics.resize(config.staticCapacity);
    std::unordered_set<std::uint32_t> staticPcs;
    for (const StaticFoldCandidate& s : selection.statics)
        staticPcs.insert(s.pc);

    // BIT residents: only branches the verifier proves safe on *every* path
    // qualify — there is no profile here to justify anything weaker.
    for (const std::uint32_t pc : allConditionalBranches(program)) {
        if (staticPcs.count(pc) != 0) continue;
        const auto it = byPc.find(pc);
        if (it == byPc.end() || it->second->totalCost == 0) continue;
        const auto v = verifier.verdictFor(pc, verifyConfig, nullptr);
        if (v.verdict != analysis::FoldLegality::kProvablySafe) continue;
        Candidate c;
        c.pc = pc;
        c.execs = it->second->execBound;
        c.score = static_cast<double>(it->second->totalCost);
        c.verdict = v.verdict;
        selection.dynamic.push_back(c);
    }
    std::sort(selection.dynamic.begin(), selection.dynamic.end(),
              [](const Candidate& a, const Candidate& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.pc < b.pc;
              });
    if (selection.dynamic.size() > config.bitCapacity)
        selection.dynamic.resize(config.bitCapacity);
    return selection;
}

std::uint64_t PredictorAwareSelection::countOf(BranchHardness h) const {
    std::uint64_t n = 0;
    for (const auto& [pc, cls] : hardness)
        if (cls == h) ++n;
    return n;
}

bool PredictorAwareSelection::foldsSubsetOfBaselineEra() const {
    std::unordered_set<std::uint32_t> era;
    for (const Candidate& c : baselineEra) era.insert(c.pc);
    for (const Candidate& c : folded)
        if (era.count(c.pc) == 0) return false;
    return true;
}

PredictorAwareSelection selectBranchesPredictorAware(
    const Program& program, const ProgramProfile& profile,
    const PredictionProfile& predictions,
    const std::map<std::uint32_t, double>& baselineAccuracyByPc,
    const SelectionConfig& config, const PredictorAwareConfig& aware) {
    ASBR_ENSURE(config.threshold >= 2 && config.threshold <= 4,
                "threshold must be 2, 3 or 4");
    PredictorAwareSelection selection;
    const std::map<std::uint32_t, double> strongAccuracy =
        predictions.accuracyMap();
    const auto minExecs = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(config.minExecFraction *
                                   static_cast<double>(profile.instructions)),
        1);

    // Classify every structurally foldable site.
    std::unordered_set<std::uint32_t> hardPcs;
    for (const auto& [pc, bp] : profile.branches) {
        if (bp.execs == 0) continue;
        if (!isExtractableBranch(program, pc)) continue;
        if (bp.foldableFraction(config.threshold) < config.minFoldableFraction)
            continue;
        BranchHardness cls;
        if (bp.execs < minExecs) {
            cls = BranchHardness::kColdSite;
        } else {
            const auto strongIt = strongAccuracy.find(pc);
            // Sites the strong predictor never saw executed contribute no
            // mispredictions — treat as won.
            const double strong =
                strongIt == strongAccuracy.end() ? 1.0 : strongIt->second;
            if (strong < aware.wellPredictedAccuracy) {
                cls = BranchHardness::kHardToPredict;
                hardPcs.insert(pc);
            } else {
                const auto baseIt = baselineAccuracyByPc.find(pc);
                const double base =
                    baseIt == baselineAccuracyByPc.end() ? 1.0 : baseIt->second;
                cls = base < aware.wellPredictedAccuracy
                          ? BranchHardness::kHistoryPredictable
                          : BranchHardness::kWellPredicted;
            }
        }
        selection.hardness.emplace(pc, cls);
    }

    // The bimodal-era selection: same policy knobs, baseline accuracy.
    selection.baselineEra =
        selectImpl(program, profile, baselineAccuracyByPc, config, nullptr);

    // The aware selection: score against the strong predictor and keep only
    // sites it demonstrably loses.
    for (const Candidate& c :
         selectImpl(program, profile, strongAccuracy, config, nullptr))
        if (hardPcs.count(c.pc) != 0) selection.folded.push_back(c);

    std::unordered_set<std::uint32_t> foldedPcs;
    for (const Candidate& c : selection.folded) foldedPcs.insert(c.pc);
    for (const Candidate& c : selection.baselineEra) {
        if (foldedPcs.count(c.pc) != 0) continue;
        ++selection.reclaimedSlots;
        selection.reclaimedPcs.push_back(c.pc);
    }
    return selection;
}

void PredictorAwareSelectionMetrics::countSelection(
    const PredictorAwareSelection& selection) {
    folded = selection.folded.size();
    hardSites = selection.countOf(BranchHardness::kHardToPredict);
    keptForPredictor =
        selection.countOf(BranchHardness::kWellPredicted) +
        selection.countOf(BranchHardness::kHistoryPredictable);
    reclaimedSlots = selection.reclaimedSlots;
}

void PredictorAwareSelectionMetrics::publish(MetricRegistry& registry) const {
    registry
        .counter("selection.predictor_aware_folded",
                 "hard-to-predict branches given BIT slots by the "
                 "predictor-aware policy")
        .set(folded);
    registry
        .counter("selection.predictor_aware_kept",
                 "foldable sites left to the strong predictor (well-predicted "
                 "or history-predictable)")
        .set(keptForPredictor);
    registry
        .counter("selection.predictor_aware_hard_sites",
                 "foldable sites the strong predictor demonstrably loses")
        .set(hardSites);
    registry
        .counter("selection.predictor_aware_reclaimed_slots",
                 "bimodal-era BIT slots handed back to the strong predictor")
        .set(reclaimedSlots);
}

void StaticCostSelectionMetrics::countSelection(const FoldSelection& selection) {
    staticFolds = selection.statics.size();
    bitResidents = selection.dynamic.size();
}

void StaticCostSelectionMetrics::publish(MetricRegistry& registry) const {
    registry
        .counter("selection.static_cost_candidates",
                 "branches in the static misprediction-cost ranking")
        .set(candidates);
    registry
        .counter("selection.static_cost_static_folds",
                 "statically-decided branches selected for the fold table")
        .set(staticFolds);
    registry
        .counter("selection.static_cost_bit_residents",
                 "provably-safe branches selected for the BIT by static cost")
        .set(bitResidents);
}

}  // namespace asbr
