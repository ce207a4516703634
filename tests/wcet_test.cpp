// Tests for the static timing engine: cost-model derivation, loop-bound
// inference and annotation precedence, the unbounded-loop lint, cost-aware
// selection, and the soundness property the whole PR rests on — the static
// cycle bound covers the measured pipeline cycle count on every workload
// and on randomly generated programs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "analysis/timing/cost_model.hpp"
#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "driver/artifacts.hpp"
#include "driver/names.hpp"
#include "mem/memory.hpp"
#include "profile/selection.hpp"
#include "program_gen.hpp"
#include "report/wcet_report.hpp"
#include "sim/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

using analysis::timing::BoundSource;
using analysis::timing::TimingCostModel;
using analysis::timing::WcetEngine;
using analysis::timing::WcetResult;

/// Verifier + engine over one program (the verifier owns the CFG and the
/// value analysis the engine borrows).
struct Timing {
    analysis::FoldLegalityVerifier verifier;
    WcetEngine engine;

    explicit Timing(const Program& p)
        : verifier(p),
          engine(verifier.cfg(), verifier.values(),
                 TimingCostModel::fromPipeline(PipelineConfig{})) {}
};

constexpr const char* kExit = "        li v0, 1\n        li a0, 0\n        sys\n";

std::string countdownLoop(const std::string& beforeHead = "") {
    return "main:   li   s0, 37\n" + beforeHead +
           "loop:   addiu s0, s0, -1\n"
           "        addiu t1, t1, 1\n"
           "        addiu t2, t2, 1\n"
           "        bnez s0, loop\n" +
           kExit;
}

// ----------------------------------------------------------- cost model ----

TEST(CostModelTest, ConstantsDeriveFromPipelineConfig) {
    PipelineConfig cfg;
    cfg.mulLatency = 7;
    cfg.divLatency = 21;
    cfg.redirectBubbles = 2;
    cfg.icache.missPenalty = 5;
    cfg.dcache.missPenalty = 9;
    cfg.icache.lineBytes = 16;
    const TimingCostModel m = TimingCostModel::fromPipeline(cfg);
    EXPECT_EQ(m.mulStall, cfg.mulLatency - 1);
    EXPECT_EQ(m.divStall, cfg.divLatency - 1);
    EXPECT_EQ(m.mispredictPenalty, 2 + cfg.redirectBubbles);
    EXPECT_EQ(m.icacheMissPenalty, cfg.icache.missPenalty);
    EXPECT_EQ(m.dcacheMissPenalty, cfg.dcache.missPenalty);
    EXPECT_EQ(m.icacheLineBytes, cfg.icache.lineBytes);
}

TEST(CostModelTest, DefaultsMatchDefaultPipeline) {
    // The declarative defaults must stay in sync with PipelineConfig's —
    // they are the documented contract in cost_model.hpp.
    const TimingCostModel derived = TimingCostModel::fromPipeline(PipelineConfig{});
    const TimingCostModel defaults;
    EXPECT_EQ(derived.mulStall, defaults.mulStall);
    EXPECT_EQ(derived.divStall, defaults.divStall);
    EXPECT_EQ(derived.mispredictPenalty, defaults.mispredictPenalty);
    EXPECT_EQ(derived.icacheMissPenalty, defaults.icacheMissPenalty);
    EXPECT_EQ(derived.dcacheMissPenalty, defaults.dcacheMissPenalty);
    EXPECT_EQ(derived.icacheLineBytes, defaults.icacheLineBytes);
}

// ----------------------------------------------------------- loop bounds ----

TEST(LoopBoundTest, CountdownLoopIsInferred) {
    const Program p = assemble(countdownLoop());
    Timing t(p);
    ASSERT_EQ(t.engine.loops().size(), 1u);
    const auto& loop = t.engine.loops().front();
    EXPECT_EQ(loop.bound.source, BoundSource::kInferred);
    // The head runs 37 times; the interval inference may over-approximate
    // by a widening step but must stay sound and useful.
    EXPECT_GE(loop.bound.iterations, 37u);
    EXPECT_LE(loop.bound.iterations, 64u);
}

TEST(LoopBoundTest, AnnotationOverridesInference) {
    const Program p = assemble(countdownLoop("        .loopbound 100\n"));
    Timing t(p);
    ASSERT_EQ(t.engine.loops().size(), 1u);
    const auto& loop = t.engine.loops().front();
    EXPECT_EQ(loop.bound.source, BoundSource::kAnnotation);
    EXPECT_EQ(loop.bound.iterations, 100u);
}

std::string memoryCountedLoop(const std::string& beforeHead = "") {
    // The trip counter lives in memory: the interval fixpoint sees an
    // lw-written register and cannot bound the loop.
    return "main:   li   t0, 5\n"
           "        sw   t0, count\n" +
           beforeHead +
           "loop:   lw   s0, count\n"
           "        addiu s0, s0, -1\n"
           "        sw   s0, count\n"
           "        addiu t1, t1, 1\n"
           "        bnez s0, loop\n" +
           kExit + "        .data\ncount: .word 0\n";
}

TEST(LoopBoundTest, MemoryCountedLoopIsUnbounded) {
    const Program p = assemble(memoryCountedLoop());
    Timing t(p);
    ASSERT_EQ(t.engine.loops().size(), 1u);
    EXPECT_FALSE(t.engine.loops().front().bound.bounded());
    EXPECT_FALSE(t.engine.compute({}).bounded);
}

TEST(LoopBoundTest, ObservedBoundFillsUnboundedLoopOnly) {
    const Program p = assemble(memoryCountedLoop());
    Timing t(p);
    Memory mem;
    mem.loadProgram(p);
    const auto observed =
        analysis::timing::observeLoopBounds(p, mem, t.engine.loops());
    ASSERT_EQ(observed.size(), 1u);
    EXPECT_EQ(observed.begin()->second, 5u);
    t.engine.applyObservedBounds(observed);
    const auto& loop = t.engine.loops().front();
    EXPECT_EQ(loop.bound.source, BoundSource::kProfile);
    EXPECT_EQ(loop.bound.iterations, 5u);
    EXPECT_TRUE(t.engine.compute({}).bounded);
}

// ----------------------------------------------------------------- lints ----

bool hasUnboundedLint(const Program& p) {
    const analysis::FoldLegalityVerifier verifier(p);
    for (const auto& lint : verifier.lints(analysis::VerifyConfig{}))
        if (lint.kind == analysis::StaticLint::Kind::kUnboundedLoop)
            return true;
    return false;
}

TEST(LintTest, UnboundedLoopIsLintedUntilAnnotated) {
    EXPECT_TRUE(hasUnboundedLint(assemble(memoryCountedLoop())));
    EXPECT_FALSE(hasUnboundedLint(
        assemble(memoryCountedLoop("        .loopbound 5\n"))));
    EXPECT_FALSE(hasUnboundedLint(assemble(countdownLoop())));
}

// ------------------------------------------------------------- selection ----

TEST(StaticCostSelectionTest, RanksByCostAndRespectsCapacity) {
    // Two foldable countdown loops; the outer-like one (bigger trip count)
    // must outrank the smaller one in the BIT when capacity is 1.
    const std::string src =
        "main:   li   s0, 50\n"
        "loopa:  addiu s0, s0, -1\n"
        "        addiu t1, t1, 1\n"
        "        addiu t2, t2, 1\n"
        "        bnez s0, loopa\n"
        "        li   s1, 5\n"
        "loopb:  addiu s1, s1, -1\n"
        "        addiu t1, t1, 1\n"
        "        addiu t2, t2, 1\n"
        "        bnez s1, loopb\n" +
        std::string(kExit);
    const Program p = assemble(src);
    Timing t(p);
    const WcetResult baseline = t.engine.compute({});
    ASSERT_TRUE(baseline.bounded) << baseline.reason;

    SelectionConfig config;
    config.bitCapacity = 1;
    const FoldSelection sel =
        selectBranchesByStaticCost(p, baseline.branches, config);
    ASSERT_EQ(sel.dynamic.size(), 1u);
    // The ranking is totalCost-descending, so the capacity-1 pick is the
    // highest-cost branch in the baseline ranking.
    EXPECT_EQ(sel.dynamic.front().pc, baseline.branches.front().pc);
    EXPECT_GT(sel.dynamic.front().score, 0.0);

    const FoldSelection both = selectBranchesByStaticCost(p, baseline.branches);
    EXPECT_EQ(both.dynamic.size(), 2u);
    EXPECT_GE(both.dynamic[0].score, both.dynamic[1].score);
}

TEST(StaticCostSelectionTest, StaticallyDecidedBranchGoesToStaticTable) {
    const std::string src =
        "main:   li   t0, 1\n"
        "        addiu t1, t1, 1\n"
        "        addiu t2, t2, 1\n"
        "        bnez t0, skip\n"
        "        addiu t3, t3, 7\n"
        "skip:\n" +
        countdownLoop().substr(5);  // drop the duplicate "main:" label
    const Program p = assemble(src);
    Timing t(p);
    const WcetResult baseline = t.engine.compute({});
    ASSERT_TRUE(baseline.bounded) << baseline.reason;
    const FoldSelection sel = selectBranchesByStaticCost(p, baseline.branches);
    ASSERT_EQ(sel.statics.size(), 1u);
    EXPECT_TRUE(sel.statics.front().taken);
    for (const Candidate& c : sel.dynamic)
        EXPECT_NE(c.pc, sel.statics.front().pc);
}

// -------------------------------------------------------------- soundness ----

std::set<std::uint32_t> foldedPcSet(const FoldSelection& sel) {
    std::set<std::uint32_t> pcs;
    for (const StaticFoldCandidate& s : sel.statics) pcs.insert(s.pc);
    for (const Candidate& c : sel.dynamic) pcs.insert(c.pc);
    return pcs;
}

std::unique_ptr<AsbrUnit> unitFor(const Program& p, const FoldSelection& sel) {
    AsbrConfig config;
    config.updateStage = ValueStage::kMemEnd;  // threshold 3
    auto unit = std::make_unique<AsbrUnit>(config);
    std::vector<std::uint32_t> pcs;
    for (const Candidate& c : sel.dynamic) pcs.push_back(c.pc);
    unit->loadBank(0, extractBranchInfos(p, pcs));
    std::vector<StaticFoldEntry> statics;
    for (const StaticFoldCandidate& s : sel.statics)
        statics.push_back(extractStaticFold(p, s.pc, s.taken));
    unit->loadStaticFolds(std::move(statics), sel.bitSlotsReclaimed);
    return unit;
}

TEST(WcetSoundnessTest, BoundCoversMeasuredCyclesOnAllWorkloads) {
    for (const BenchId id : kAllBenchesExtended) {
        const driver::Prepared prepared = driver::prepare(id, true, 2001, 48);
        Timing t(prepared.program);
        Memory observeMem = driver::makeMemory(prepared);
        t.engine.applyObservedBounds(analysis::timing::observeLoopBounds(
            prepared.program, observeMem, t.engine.loops()));

        const WcetResult baseline = t.engine.compute({});
        ASSERT_TRUE(baseline.bounded) << benchName(id) << ": "
                                      << baseline.reason;

        SelectionConfig selConfig;
        const FoldSelection sel =
            selectBranchesByStaticCost(prepared.program, baseline.branches,
                                       selConfig);
        const std::set<std::uint32_t> foldedPcs = foldedPcSet(sel);
        const WcetResult folded = t.engine.compute(foldedPcs);
        ASSERT_TRUE(folded.bounded) << benchName(id) << ": " << folded.reason;

        const auto baselinePredictor = driver::makePredictorByToken("bimodal");
        const std::uint64_t measuredBaseline =
            driver::runPipeline(prepared, *baselinePredictor).stats.cycles;
        const auto foldedPredictor = driver::makePredictorByToken("bimodal");
        const auto unit = unitFor(prepared.program, sel);
        const std::uint64_t measuredFolded =
            driver::runPipeline(prepared, *foldedPredictor, unit.get())
                .stats.cycles;

        EXPECT_GE(baseline.cycles, measuredBaseline) << benchName(id);
        EXPECT_GE(folded.cycles, measuredFolded) << benchName(id);
        EXPECT_FALSE(foldedPcs.empty()) << benchName(id);
        EXPECT_LT(folded.cycles, baseline.cycles) << benchName(id);
    }
}

TEST(WcetSoundnessTest, BoundCoversMeasuredCyclesOnRandomPrograms) {
    int inferredOnly = 0;
    for (std::uint64_t seed = 1; seed <= 22; ++seed) {
        ProgramGen gen(seed * 104729);
        const Program p = assemble(gen.generate());
        Timing t(p);

        // Prefer fully static bounds; fall back to observed ones so every
        // seed still exercises the solver soundness property.
        WcetResult baseline = t.engine.compute({});
        if (baseline.bounded) {
            ++inferredOnly;
        } else {
            Memory observeMem;
            observeMem.loadProgram(p);
            t.engine.applyObservedBounds(analysis::timing::observeLoopBounds(
                p, observeMem, t.engine.loops()));
            baseline = t.engine.compute({});
        }
        ASSERT_TRUE(baseline.bounded)
            << "seed " << seed << ": " << baseline.reason;

        Memory mem;
        mem.loadProgram(p);
        const auto predictor = makeBimodal(64, 64);
        PipelineSim sim(p, mem, *predictor, PipelineConfig{});
        const PipelineResult r = sim.run();
        ASSERT_TRUE(r.exited && r.exitCode == 0) << "seed " << seed;
        EXPECT_GE(baseline.cycles, r.stats.cycles) << "seed " << seed;

        const FoldSelection sel =
            selectBranchesByStaticCost(p, baseline.branches);
        const WcetResult folded = t.engine.compute(foldedPcSet(sel));
        ASSERT_TRUE(folded.bounded) << "seed " << seed;
        EXPECT_LE(folded.cycles, baseline.cycles) << "seed " << seed;
    }
    // The generator emits countdown loops on purpose — inference must carry
    // the clear majority of the seeds without dynamic help.
    EXPECT_GE(inferredOnly, 15);
}

// ------------------------------------------------------------ wcet report ----

/// A valid report over the countdown loop: one inferred loop, no folds.
JsonValue countdownReport() {
    const Program p = assemble(countdownLoop());
    Timing t(p);
    const WcetResult baseline = t.engine.compute({});
    WcetReportMeta meta;
    meta.benchmark = "countdown";
    return wcetReportJson(meta, t.engine, baseline, baseline, {}, 0, 0);
}

JsonValue& member(JsonValue& object, const std::string& key) {
    for (auto& [k, v] : object.asObject())
        if (k == key) return v;
    ADD_FAILURE() << "no member " << key;
    return object;
}

/// True when validation fails on exactly the named invariant.
bool violates(const JsonValue& doc, const std::string& rule) {
    const ReportValidation v = validateWcetReportJson(doc);
    return v.errors.size() == 1 &&
           v.errors.front().find(rule) != std::string::npos;
}

TEST(WcetReportTest, SummaryCountsMustMatchLoopSources) {
    JsonValue doc = countdownReport();
    ASSERT_TRUE(validateWcetReportJson(doc).ok());
    ASSERT_EQ(member(member(doc, "loops").asArray()[0], "source").asString(),
              "inferred");
    // Same loop total and the same bounded/unbounded split, but the loop is
    // claimed as annotated.
    JsonValue& summary = member(doc, "summary");
    member(summary, "loops_inferred") = JsonValue(std::uint64_t{0});
    member(summary, "loops_annotated") = JsonValue(std::uint64_t{1});
    EXPECT_TRUE(violates(doc, "loop sources"));
}

TEST(WcetReportTest, LoopIsBoundedExactlyWhenSourced) {
    JsonValue doc = countdownReport();
    ASSERT_TRUE(validateWcetReportJson(doc).ok());
    // Unbounded per the flag and the summary, yet its bound has a source.
    member(member(doc, "loops").asArray()[0], "bounded") = JsonValue(false);
    member(member(doc, "summary"), "loops_unbounded") =
        JsonValue(std::uint64_t{1});
    EXPECT_TRUE(violates(doc, "loops[].bounded"));
}

}  // namespace
}  // namespace asbr
