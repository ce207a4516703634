#include "profile/profiler.hpp"

#include <array>
#include <map>
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

}  // namespace

ProgramProfile profileProgram(const Program& program, Memory& memory,
                              std::uint64_t maxInstructions) {
    // Dynamic index of the last committed write to each register, plus a
    // slot the non-writers write to.  Registers never written count as
    // defined "infinitely long ago" (machine reset), so branches on them are
    // always foldable.
    std::array<std::int64_t, kNumRegs + 1> lastDef{};
    lastDef.fill(-(1LL << 40));
    std::int64_t index = 0;
    std::vector<BranchProfile> sites(program.code.size());

    const auto observe = [&](const DecodedOp& dec, const ArchState& state) {
        if (dec.condBranch) {
            BranchProfile& bp = sites[textIndex(program, dec.pc)];
            ++bp.execs;
            // A branch writes no register: rs still holds its operand.
            if (evalCond(dec.cond, state.reg(dec.ins.rs))) ++bp.taken;
            const auto distance =
                static_cast<std::uint64_t>(index - lastDef[dec.ins.rs]);
            if (distance >= 2) ++bp.distGe2;
            if (distance >= 3) ++bp.distGe3;
            if (distance >= 4) ++bp.distGe4;
            if (distance < bp.minDistance) bp.minDistance = distance;
        }
        lastDef[dec.writesDest ? dec.dest : kNumRegs] = index;
        ++index;
    };
    ProgramProfile profile;
    FunctionalSim sim(program, memory);
    profile.instructions = sim.run(maxInstructions, observe).instructions;
    profile.branches = executedSites(program, sites);
    return profile;
}

std::map<std::uint32_t, double> PredictionProfile::accuracyMap() const {
    std::map<std::uint32_t, double> out;
    for (const auto& [pc, site] : sites) out[pc] = site.accuracy();
    return out;
}

PredictionProfile profilePredictions(const Program& program, Memory& memory,
                                     BranchPredictor& predictor,
                                     std::uint64_t maxInstructions) {
    PredictionProfile profile;
    profile.predictorToken = predictor.token();
    predictor.reset();

    std::vector<SitePrediction> sites(program.code.size());
    const auto observe = [&](const DecodedOp& dec, const ArchState& state) {
        if (!dec.condBranch) return;
        const Prediction prediction = predictor.predict(dec.pc);
        // Score like the pipeline: the redirect must hit the architectural
        // successor, so taken guesses need the BTB to supply the target.
        const std::uint32_t predictedNext = prediction.effectiveTaken()
                                                ? *prediction.target
                                                : dec.fallthrough;
        SitePrediction& site = sites[textIndex(program, dec.pc)];
        ++site.execs;
        ++profile.branches;
        if (predictedNext != state.pc) {
            ++site.mispredicts;
            ++profile.mispredicts;
        }
        // A branch writes no register: rs still holds its operand.
        predictor.update(dec.pc, evalCond(dec.cond, state.reg(dec.ins.rs)),
                         dec.target);
    };
    FunctionalSim sim(program, memory);
    (void)sim.run(maxInstructions, observe);
    profile.sites = executedSites(program, sites);
    return profile;
}

}  // namespace asbr
