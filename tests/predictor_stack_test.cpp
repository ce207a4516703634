// Tests for the modular predictor stack: the PredictorRegistry token
// grammar (round-trips, structured errors), the TAGE and perceptron
// families (training behaviour, metrics, storage accounting), engine-level
// determinism of the new predictors across thread counts, and the
// predictor-aware fold-selection policy (hardness taxonomy, strict-subset
// and reclaimed-slot guarantees).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bp/perceptron.hpp"
#include "bp/registry.hpp"
#include "bp/tage.hpp"
#include "cc/compile.hpp"
#include "driver/artifacts.hpp"
#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "report/report.hpp"
#include "sim/functional.hpp"
#include "util/metrics.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

using driver::CliOptions;
using driver::JobResult;
using driver::SimEngine;
using driver::SimJob;

// ---------------------------------------------------------------------------
// Registry

TEST(PredictorRegistryTest, EveryFamilyPrefixRoundTrips) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    const std::vector<std::string> tokens = registry.tokens();
    ASSERT_GE(tokens.size(), 9u);  // the seed families + tage + perceptron
    for (const std::string& token : tokens) {
        std::string error;
        const auto predictor = registry.make(token, &error);
        ASSERT_NE(predictor, nullptr) << token << ": " << error;
        // token -> predictor -> token is the identity for bare prefixes.
        EXPECT_EQ(predictor->token(), token);
        // The registry's storage accounting is the predictor's own.
        EXPECT_EQ(registry.storageBits(token), predictor->storageBits())
            << token;
    }
}

TEST(PredictorRegistryTest, ParameterizedTokensRoundTrip) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    const char* tokens[] = {
        "bimodal:c1024-b2048",  "gshare:h8-c256-b512",
        "tournament:c512-h9-b2048", "tage:h4-8",
        "tage:h4-8-e256-t7",    "perceptron:n128-h8",
    };
    for (const char* token : tokens) {
        std::string error;
        const auto predictor = registry.make(token, &error);
        ASSERT_NE(predictor, nullptr) << token << ": " << error;
        EXPECT_EQ(predictor->token(), token);
        // The canonical token re-resolves to an identical configuration.
        const auto again = registry.make(predictor->token(), &error);
        ASSERT_NE(again, nullptr) << predictor->token() << ": " << error;
        EXPECT_EQ(again->storageBits(), predictor->storageBits()) << token;
    }
}

TEST(PredictorRegistryTest, BimodalAliasSizesCanonicalizeToAliases) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    EXPECT_EQ(registry.make("bimodal:c512-b512")->token(), "bi512");
    EXPECT_EQ(registry.make("bimodal:c256-b512")->token(), "bi256");
}

TEST(PredictorRegistryTest, UnknownTokenErrorListsEveryGrammar) {
    std::string error;
    EXPECT_EQ(driver::makePredictorByToken("oracle", &error), nullptr);
    EXPECT_NE(error.find("oracle"), std::string::npos) << error;
    for (const PredictorFamily& family :
         PredictorRegistry::instance().families())
        EXPECT_NE(error.find(family.grammar), std::string::npos)
            << "missing " << family.grammar << " in: " << error;
}

TEST(PredictorRegistryTest, MalformedParametersGiveStructuredErrors) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    const char* bad[] = {
        "tage:h8-4",        // history lengths must strictly increase
        "tage:h0",          // zero-length history
        "tage:h8-e3",       // tagged entries must be a power of two
        "perceptron:n3",    // rows must be a power of two
        "perceptron:h99",   // history beyond the 62-bit cap
        "bimodal:c7",       // counters must be a power of two
        "gshare:x4",        // unknown parameter letter
        "not-taken:c16",    // static predictors take no parameters
    };
    for (const char* token : bad) {
        std::string error;
        EXPECT_EQ(registry.make(token, &error), nullptr) << token;
        EXPECT_FALSE(error.empty()) << token;
    }
}

// ---------------------------------------------------------------------------
// TAGE

/// Drive one branch site through `pattern` repeatedly and return the
/// misprediction count over the final `measured` outcomes.
std::uint64_t mispredictsOnPattern(BranchPredictor& predictor,
                                   const std::vector<bool>& pattern,
                                   std::size_t total, std::size_t measured) {
    constexpr std::uint32_t kPc = 0x1000;
    constexpr std::uint32_t kTarget = 0x2000;
    std::uint64_t mispredicts = 0;
    for (std::size_t i = 0; i < total; ++i) {
        const bool taken = pattern[i % pattern.size()];
        const Prediction prediction = predictor.predict(kPc);
        if (i + measured >= total && prediction.effectiveTaken() != taken)
            ++mispredicts;
        predictor.update(kPc, taken, kTarget);
    }
    return mispredicts;
}

TEST(TagePredictorTest, LearnsPatternBimodalCannot) {
    // Period-4 pattern TTNN: a 2-bit counter oscillates (~50% accuracy);
    // any history-based predictor locks on once its tables warm up.
    const std::vector<bool> pattern = {true, true, false, false};
    auto tage = makeTage();
    const std::uint64_t tageMisses =
        mispredictsOnPattern(*tage, pattern, 2000, 500);
    auto bimodal = driver::makePredictorByToken("bimodal");
    const std::uint64_t bimodalMisses =
        mispredictsOnPattern(*bimodal, pattern, 2000, 500);
    EXPECT_LE(tageMisses, 25u) << "tage failed to learn a period-4 pattern";
    EXPECT_GE(bimodalMisses, 200u)
        << "pattern unexpectedly easy for the bimodal baseline";
}

TEST(TagePredictorTest, AllocatesTaggedEntriesAndPublishesMetrics) {
    auto predictor = makeTage();
    auto* tage = dynamic_cast<TagePredictor*>(predictor.get());
    ASSERT_NE(tage, nullptr);
    mispredictsOnPattern(*tage, {true, true, false, false}, 2000, 1);

    MetricRegistry registry;
    tage->publishFamilyMetrics(registry);
    const Counter* allocations = registry.findCounter("bp.tage.allocations");
    const Counter* tagged = registry.findCounter("bp.tage.provider_tagged");
    const Counter* base = registry.findCounter("bp.tage.provider_base");
    ASSERT_NE(allocations, nullptr);
    ASSERT_NE(tagged, nullptr);
    ASSERT_NE(base, nullptr);
    EXPECT_GT(allocations->value(), 0u) << "no entries allocated on mispredicts";
    EXPECT_GT(tagged->value(), 0u) << "tagged tables never provided";
    EXPECT_GT(base->value(), 0u) << "base table never provided";

    std::uint64_t hits = 0;
    for (const std::uint64_t h : tage->tableHits()) hits += h;
    EXPECT_GT(hits, 0u);
}

TEST(TagePredictorTest, DecaySweepAgesUsefulness) {
    // A short decay period via the token grammar: sweep every 64 updates.
    auto predictor = PredictorRegistry::instance().make("tage:h2-4-d64");
    ASSERT_NE(predictor, nullptr);
    auto* tage = dynamic_cast<TagePredictor*>(predictor.get());
    ASSERT_NE(tage, nullptr);
    mispredictsOnPattern(*tage, {true, false}, 512, 1);

    MetricRegistry registry;
    tage->publishFamilyMetrics(registry);
    const Counter* decays = registry.findCounter("bp.tage.useful_decays");
    ASSERT_NE(decays, nullptr);
    EXPECT_GE(decays->value(), 512u / 64u)
        << "decay sweep did not run once per period";
}

TEST(TagePredictorTest, ResetRestoresColdState) {
    auto predictor = makeTage();
    auto* tage = dynamic_cast<TagePredictor*>(predictor.get());
    ASSERT_NE(tage, nullptr);
    const std::vector<bool> pattern = {true, true, false, false};
    const std::uint64_t cold = mispredictsOnPattern(*tage, pattern, 400, 400);
    tage->reset();
    const std::uint64_t again = mispredictsOnPattern(*tage, pattern, 400, 400);
    EXPECT_EQ(cold, again) << "reset() did not restore the cold state";
}

/// One resolved conditional branch of an ISS run.
struct BranchEvent {
    std::uint32_t pc = 0;
    bool taken = false;
    std::uint32_t target = 0;
};

/// The conditional-branch stream of a small G.721 encode on the ISS.
const std::vector<BranchEvent>& codecBranchStream() {
    static const std::vector<BranchEvent> stream = [] {
        const driver::Prepared prepared =
            driver::prepare(BenchId::kG721Encode, true, 2001, 300);
        Memory memory = driver::makeMemory(prepared);
        FunctionalSim sim(prepared.program, memory);
        std::vector<BranchEvent> events;
        sim.setTraceHook([&](const Instruction&, const StepResult& sr) {
            if (sr.isBranch)
                events.push_back({sr.pc, sr.branchTaken, sr.branchTarget});
        });
        EXPECT_TRUE(sim.run().exited);
        return events;
    }();
    return stream;
}

TEST(TagePredictorTest, CodecStreamReplayMatchesPinnedCounters) {
    // Values pinned from the fold-per-lookup implementation; the
    // incrementally folded history must reproduce every one of them.
    struct Pinned {
        const char* token;
        std::uint64_t mispredicts;
        std::uint64_t providerBase, providerTagged, allocations,
            allocFailures, usefulDecays;
        std::vector<std::uint64_t> tableHits;
    };
    const Pinned pinned[] = {
        {"tage", 4120, 49349, 45077, 2825, 329, 0,
         {16983, 12915, 11118, 4061}},
        {"tage:h4-8-e256-t7", 6783, 42196, 52230, 529, 123, 0, {9744, 42486}},
        {"tage:h5-13-29-47-64-e1024-t11-d4096", 3915, 45027, 49399, 2922, 47,
         23, {15747, 16878, 8864, 4125, 3785}},
    };
    const std::vector<BranchEvent>& stream = codecBranchStream();
    ASSERT_GT(stream.size(), 10'000u);
    for (const Pinned& want : pinned) {
        auto predictor = PredictorRegistry::instance().make(want.token);
        ASSERT_NE(predictor, nullptr) << want.token;
        auto* tage = dynamic_cast<TagePredictor*>(predictor.get());
        ASSERT_NE(tage, nullptr) << want.token;
        std::uint64_t mispredicts = 0;
        for (const BranchEvent& e : stream) {
            const Prediction p = tage->predict(e.pc);
            const std::uint32_t next =
                p.effectiveTaken() ? *p.target : e.pc + kInstrBytes;
            if (next != (e.taken ? e.target : e.pc + kInstrBytes))
                ++mispredicts;
            tage->update(e.pc, e.taken, e.target);
        }
        MetricRegistry registry;
        tage->publishFamilyMetrics(registry);
        const auto counter = [&](const char* name) {
            const Counter* c = registry.findCounter(name);
            return c != nullptr ? c->value() : ~0ull;
        };
        EXPECT_EQ(mispredicts, want.mispredicts) << want.token;
        EXPECT_EQ(counter("bp.tage.provider_base"), want.providerBase)
            << want.token;
        EXPECT_EQ(counter("bp.tage.provider_tagged"), want.providerTagged)
            << want.token;
        EXPECT_EQ(counter("bp.tage.allocations"), want.allocations)
            << want.token;
        EXPECT_EQ(counter("bp.tage.alloc_failures"), want.allocFailures)
            << want.token;
        EXPECT_EQ(counter("bp.tage.useful_decays"), want.usefulDecays)
            << want.token;
        EXPECT_EQ(tage->tableHits(), want.tableHits) << want.token;
    }
}

// ---------------------------------------------------------------------------
// Perceptron

TEST(PerceptronPredictorTest, ThresholdFollowsJimenezLinFormula) {
    // theta = floor(1.93 * h + 14)
    auto dflt = makePerceptron();
    EXPECT_EQ(dynamic_cast<PerceptronPredictor*>(dflt.get())->threshold(), 37);
    auto h8 = PredictorRegistry::instance().make("perceptron:n64-h8");
    ASSERT_NE(h8, nullptr);
    EXPECT_EQ(dynamic_cast<PerceptronPredictor*>(h8.get())->threshold(), 29);
}

TEST(PerceptronPredictorTest, TrainsOnMispredictAndLowConfidenceOnly) {
    auto predictor = makePerceptron();
    auto* perceptron = dynamic_cast<PerceptronPredictor*>(predictor.get());
    ASSERT_NE(perceptron, nullptr);

    // A monotone always-taken site: weights grow past theta, then training
    // stops — far fewer train events than updates.
    constexpr std::uint32_t kPc = 0x1000;
    for (int i = 0; i < 400; ++i) perceptron->update(kPc, true, 0x2000);
    EXPECT_GT(perceptron->trainEvents(), 0u);
    EXPECT_LT(perceptron->trainEvents(), 400u)
        << "training never saturated on a trivially-biased branch";
    EXPECT_EQ(perceptron->trainEvents(),
              perceptron->mispredictTrains() +
                  perceptron->lowConfidenceTrains());
    EXPECT_GT(perceptron->lowConfidenceTrains(), 0u);
}

TEST(PerceptronPredictorTest, LearnsAlternatingPattern) {
    auto predictor = makePerceptron();
    const std::uint64_t misses =
        mispredictsOnPattern(*predictor, {true, false}, 1000, 500);
    EXPECT_LE(misses, 10u) << "perceptron failed to learn alternation";
}

// ---------------------------------------------------------------------------
// Engine determinism: tage + perceptron across all six workloads

CliOptions tinyOptions() {
    CliOptions options;
    options.adpcmSamples = 1'000;
    options.g721Samples = 400;
    return options;
}

TEST(PredictorStackDeterminism, SixWorkloadsBytesIdenticalAcrossThreads) {
    const CliOptions options = tinyOptions();
    std::vector<SimJob> jobs;
    for (const BenchId id : kAllBenchesExtended) {
        for (const char* predictor : {"tage", "perceptron"}) {
            SimJob job;
            job.workload = id;
            job.seed = options.seed;
            job.samples = driver::samplesFor(options, id);
            job.predictor = predictor;
            job.figure = "test";
            job.asbr = true;
            jobs.push_back(job);
        }
    }
    // One predictor-aware point so the aware-selection artifact path is
    // exercised under both schedulers too.
    SimJob aware = jobs.front();
    aware.predictorAware = true;
    jobs.push_back(aware);

    auto serialize = [](const std::vector<JobResult>& results) {
        std::string text;
        for (const JobResult& r : results)
            text += simReportJson(r.report).dump(2);
        return text;
    };
    SimEngine serial({.threads = 1});
    SimEngine parallel({.threads = 8});
    const std::string s = serialize(serial.run(jobs));
    const std::string p = serialize(parallel.run(jobs));
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s, p) << "tage/perceptron runs diverged across thread counts";
}

TEST(PredictorStackDeterminism, ReportsCarryPredictorToken) {
    const CliOptions options = tinyOptions();
    SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.seed = options.seed;
    job.samples = driver::samplesFor(options, BenchId::kAdpcmEncode);
    job.predictor = "tage:h4-8";
    job.figure = "test";
    SimEngine engine({.threads = 2});
    const std::vector<JobResult> results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);
    const std::string json = simReportJson(results[0].report).dump(2);
    EXPECT_NE(json.find("\"predictor_token\": \"tage:h4-8\""),
              std::string::npos)
        << json.substr(0, 600);
}

// ---------------------------------------------------------------------------
// Predictor-aware selection

TEST(PredictorAwareSelectionTest, HardnessTaxonomyAndStrictSubset) {
    // Three branch flavours: hot loop branches (well-predicted by both), a
    // period-4 toggle (bimodal loses, history predictors win) and an
    // LFSR-driven branch (everybody loses).
    const cc::Compiled compiled = cc::compile(R"(
int hist[4];
int lfsr = 44257;
int next_bit() {
    int bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
    lfsr = (lfsr >> 1) | (bit << 15);
    return bit;
}
int main() {
    int toggles = 0;
    int chaos = 0;
    for (int i = 0; i < 4000; i++) {
        int t = (i & 3) >> 1;
        int b = next_bit();
        int pad = t + b;
        hist[(pad + i) & 3] += 1;
        if (t) toggles++;
        if (b) chaos++;
    }
    __putint(toggles);
    __putchar(44);
    __putint(chaos);
    return 0;
}
)");
    const Program& p = compiled.program;

    Memory profMem;
    profMem.loadProgram(p);
    const ProgramProfile profile = profileProgram(p, profMem);
    ASSERT_GT(profile.branches.size(), 2u);

    auto profileUnder = [&](const char* token) {
        Memory mem;
        mem.loadProgram(p);
        auto predictor = driver::makePredictorByToken(token);
        return profilePredictions(p, mem, *predictor);
    };
    const PredictionProfile baseline = profileUnder("bimodal");
    const PredictionProfile strong = profileUnder("tage");

    SelectionConfig config;
    config.bitCapacity = 8;
    config.minExecFraction = 0.0;
    const PredictorAwareSelection selection = selectBranchesPredictorAware(
        p, profile, strong, baseline.accuracyMap(), config);

    EXPECT_FALSE(selection.hardness.empty());
    EXPECT_GT(selection.countOf(BranchHardness::kHardToPredict), 0u)
        << "the LFSR branch should defeat tage";
    EXPECT_GT(selection.countOf(BranchHardness::kWellPredicted) +
                  selection.countOf(BranchHardness::kHistoryPredictable),
              0u)
        << "tage should win at least the loop or toggle branches";

    // The headline guarantees: the aware policy folds a strict subset of
    // what the bimodal-era policy folded, and every era slot it skips is
    // reported as reclaimed.
    EXPECT_FALSE(selection.folded.empty());
    EXPECT_TRUE(selection.foldsSubsetOfBaselineEra());
    EXPECT_LT(selection.folded.size(), selection.baselineEra.size());
    EXPECT_EQ(selection.reclaimedSlots, selection.reclaimedPcs.size());
    EXPECT_GT(selection.reclaimedSlots, 0u);
    EXPECT_EQ(selection.folded.size() + selection.reclaimedSlots,
              selection.baselineEra.size());

    // Every folded site is classified hard.
    for (const Candidate& candidate : selection.folded) {
        const auto it = selection.hardness.find(candidate.pc);
        ASSERT_NE(it, selection.hardness.end());
        EXPECT_EQ(it->second, BranchHardness::kHardToPredict);
    }

    PredictorAwareSelectionMetrics metrics;
    metrics.countSelection(selection);
    EXPECT_EQ(metrics.folded, selection.folded.size());
    EXPECT_EQ(metrics.hardSites,
              selection.countOf(BranchHardness::kHardToPredict));
    EXPECT_EQ(metrics.reclaimedSlots, selection.reclaimedSlots);
}

TEST(PredictorAwareSelectionTest, EngineRunReportsAwareCounters) {
    const CliOptions options = tinyOptions();
    SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.seed = options.seed;
    job.samples = driver::samplesFor(options, BenchId::kAdpcmEncode);
    job.predictor = "tage";
    job.figure = "test";
    job.asbr = true;
    job.predictorAware = true;
    SimEngine engine({.threads = 2});
    const std::vector<JobResult> results = engine.run({job});
    ASSERT_EQ(results.size(), 1u);
    const JobResult& result = results[0];
    const MetricRegistry& registry = result.report.registry;
    const Counter* hard =
        registry.findCounter("selection.predictor_aware_hard_sites");
    const Counter* kept = registry.findCounter("selection.predictor_aware_kept");
    ASSERT_NE(hard, nullptr);
    ASSERT_NE(kept, nullptr);
    EXPECT_GT(hard->value() + kept->value(), 0u);

    const std::string json = simReportJson(result.report).dump(2);
    EXPECT_NE(json.find("\"predictor_aware\": true"), std::string::npos);
    EXPECT_NE(json.find("selection.predictor_aware_folded"),
              std::string::npos);
}

}  // namespace
}  // namespace asbr
