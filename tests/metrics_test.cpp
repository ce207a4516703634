// Tests for the observability layer: metric registry semantics, the JSON
// writer/parser, pipeline trace capture, and the SimReport schema
// validators.
#include <gtest/gtest.h>

#include <sstream>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/static_predictors.hpp"
#include "mem/memory.hpp"
#include "report/report.hpp"
#include "sim/pipeline.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace asbr {
namespace {

// ------------------------------------------------------------- registry ----

TEST(MetricRegistryTest, CounterIsMonotonic) {
    Counter c;
    c.add(3);
    c.add();
    EXPECT_EQ(c.value(), 4u);
    c.set(10);
    EXPECT_EQ(c.value(), 10u);
    EXPECT_THROW(c.set(9), EnsureError);
}

TEST(MetricRegistryTest, DuplicateRegistrationThrows) {
    MetricRegistry registry;
    Counter& a = registry.counter("pipeline.cycles", "total cycles");
    a.add(7);
    EXPECT_THROW(registry.counter("pipeline.cycles", "second claim"),
                 EnsureError);
    // The failed re-registration left the original metric untouched.
    EXPECT_EQ(a.value(), 7u);
    EXPECT_TRUE(registry.contains("pipeline.cycles"));
    EXPECT_FALSE(registry.contains("pipeline.nope"));
}

TEST(MetricRegistryTest, KindMismatchThrows) {
    MetricRegistry registry;
    registry.counter("x", "a counter");
    EXPECT_THROW(registry.sites("x", "now a site table"), EnsureError);
    EXPECT_THROW(registry.histogram("x", "now a histogram", {1.0}), EnsureError);
}

TEST(MetricRegistryTest, CatalogueIsSortedAndComplete) {
    MetricRegistry registry;
    registry.sites("b.sites", "per-site");
    registry.counter("a.counter", "help a");
    registry.histogram("c.hist", "help c", {0.5, 1.0});
    const auto entries = registry.catalogue();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].name, "a.counter");
    EXPECT_EQ(entries[0].kind, MetricRegistry::Entry::Kind::kCounter);
    EXPECT_EQ(entries[1].name, "b.sites");
    EXPECT_EQ(entries[2].name, "c.hist");
    EXPECT_EQ(entries[2].help, "help c");
}

TEST(HistogramTest, BucketsAndOverflow) {
    Histogram h({1.0, 10.0});
    h.record(0.5);   // bucket 0 (<= 1)
    h.record(1.0);   // bucket 0 (inclusive edge)
    h.record(5.0);   // bucket 1
    h.record(100.0); // overflow bucket
    ASSERT_EQ(h.counts().size(), 3u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 1u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_THROW(Histogram({2.0, 1.0}), EnsureError);
}

TEST(SiteTableTest, AccumulatesPerPc) {
    SiteTable t;
    t.add(0x1000, 2);
    t.add(0x1000);
    t.add(0x2000);
    EXPECT_EQ(t.at(0x1000), 3u);
    EXPECT_EQ(t.at(0x2000), 1u);
    EXPECT_EQ(t.at(0x3000), 0u);
}

// ----------------------------------------------------------------- JSON ----

TEST(JsonTest, RoundTripsThroughParser) {
    JsonObject obj;
    obj.emplace_back("name", "asbr \"quoted\"\n");
    obj.emplace_back("count", std::uint64_t{18446744073709551615u});
    obj.emplace_back("ratio", 0.1);
    obj.emplace_back("neg", -3);
    obj.emplace_back("flag", true);
    obj.emplace_back("nothing", JsonValue());
    obj.emplace_back("list", JsonValue(JsonArray{1, 2, 3}));
    const JsonValue doc{std::move(obj)};

    for (const int indent : {0, 2}) {
        const JsonParseResult parsed = parseJson(doc.dump(indent));
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        EXPECT_EQ(parsed.value->find("name")->asString(), "asbr \"quoted\"\n");
        EXPECT_EQ(parsed.value->find("count")->asUint(),
                  18446744073709551615u);
        EXPECT_DOUBLE_EQ(parsed.value->find("ratio")->asDouble(), 0.1);
        EXPECT_DOUBLE_EQ(parsed.value->find("neg")->asDouble(), -3.0);
        EXPECT_TRUE(parsed.value->find("flag")->asBool());
        EXPECT_TRUE(parsed.value->find("nothing")->isNull());
        EXPECT_EQ(parsed.value->find("list")->asArray().size(), 3u);
    }
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
    JsonObject obj;
    obj.emplace_back("zebra", 1);
    obj.emplace_back("apple", 2);
    const std::string text = JsonValue{std::move(obj)}.dump();
    EXPECT_LT(text.find("zebra"), text.find("apple"));
}

TEST(JsonTest, ParseErrorsAreReported) {
    for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "01", "tru",
                            "\"unterminated", "{\"a\":1} trailing"}) {
        const JsonParseResult parsed = parseJson(bad);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
        EXPECT_FALSE(parsed.error.empty());
    }
}

// ------------------------------------------------- deterministic fixture ----

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

/// Countdown loop with `fillers` independent instructions between the
/// producer of the branch condition and the branch (same shape as
/// asbr_unit_test.cpp).
std::string countdownLoop(int fillers, int iterations = 100) {
    std::string src = "main:   li   s0, " + std::to_string(iterations) + "\n";
    src += "loop:   addiu s0, s0, -1\n";
    for (int i = 0; i < fillers; ++i) src += "        addiu t1, t1, 1\n";
    src += "        bnez s0, loop\n";
    src += kExit;
    return src;
}

std::uint32_t loopBranchPc(int fillers) {
    return kTextBase + (1 + 1 + static_cast<std::uint32_t>(fillers)) * 4;
}

PipelineConfig perfectCaches() {
    PipelineConfig cfg;
    cfg.icache.missPenalty = 0;
    cfg.dcache.missPenalty = 0;
    cfg.mulLatency = 1;
    cfg.divLatency = 1;
    cfg.redirectBubbles = 0;
    return cfg;
}

struct FixtureRun {
    PipelineResult result;
    AsbrUnit unit;

    explicit FixtureRun(int fillers, const PipelineConfig& cfg = perfectCaches())
        : unit(AsbrConfig{ValueStage::kMemEnd, 16, 1}) {
        const Program p = assemble(countdownLoop(fillers));
        Memory memory;
        memory.loadProgram(p);
        NotTakenPredictor predictor;
        unit.loadBank(0, extractBranchInfos(
                             p, std::vector<std::uint32_t>{
                                    loopBranchPc(fillers)}));
        PipelineSim sim(p, memory, predictor, cfg, &unit);
        result = sim.run();
    }
};

TEST(MetricPublishTest, FoldCountsLandInRegistry) {
    // Distance 4 at mem_end: every loop-back iteration folds.  The loop
    // branch executes 100 times; the last execution (s0 == 0) is still a
    // fold resolved not-taken.
    FixtureRun run(3);
    ASSERT_EQ(run.unit.stats().folds, 100u);
    ASSERT_EQ(run.unit.stats().foldsTaken, 99u);
    ASSERT_EQ(run.unit.stats().blockedInvalid, 0u);

    MetricRegistry registry;
    run.result.stats.publish(registry);
    run.unit.publishMetrics(registry);
    EXPECT_EQ(registry.findCounter("asbr.folds")->value(), 100u);
    EXPECT_EQ(registry.findCounter("asbr.folds_taken")->value(), 99u);
    EXPECT_EQ(registry.findCounter("asbr.blocked_invalid")->value(), 0u);
    EXPECT_EQ(registry.findCounter("pipeline.folded_branches")->value(), 100u);
    EXPECT_EQ(registry.findCounter("pipeline.cond_branches")->value(), 100u);
    EXPECT_EQ(registry.findCounter("pipeline.predicted_branches")->value(), 0u);
    EXPECT_EQ(registry.findCounter("pipeline.cycles")->value(),
              run.result.stats.cycles);
    // Per-site breakdown: the single loop branch owns all folds.
    const SiteTable* folded = registry.findSites("pipeline.site.folded");
    ASSERT_NE(folded, nullptr);
    EXPECT_EQ(folded->at(loopBranchPc(3)), 100u);
}

TEST(MetricPublishTest, ValidityStallCountsLandInRegistry) {
    // Distance 1: the producer is still in flight at every fetch of the
    // branch, so each of the 100 executions is blocked by the validity
    // counter and falls back to the predictor.
    FixtureRun run(0);
    ASSERT_EQ(run.unit.stats().folds, 0u);
    ASSERT_EQ(run.unit.stats().blockedInvalid, 100u);

    MetricRegistry registry;
    run.result.stats.publish(registry);
    run.unit.publishMetrics(registry);
    EXPECT_EQ(registry.findCounter("asbr.blocked_invalid")->value(), 100u);
    EXPECT_EQ(registry.findCounter("asbr.folds")->value(), 0u);
    EXPECT_EQ(registry.findCounter("pipeline.folded_branches")->value(), 0u);
    EXPECT_EQ(registry.findCounter("pipeline.predicted_branches")->value(),
              100u);
}

// ---------------------------------------------------------------- trace ----

struct TracedRun {
    Tracer tracer;
    PipelineResult result;

    explicit TracedRun(const std::string& src,
                       const TracerConfig& tcfg = {}) : tracer(tcfg) {
        const Program p = assemble(src);
        Memory memory;
        memory.loadProgram(p);
        NotTakenPredictor predictor;
        PipelineConfig cfg = perfectCaches();
        cfg.tracer = &tracer;
        PipelineSim sim(p, memory, predictor, cfg);
        result = sim.run();
    }
};

TEST(TracerTest, EventsAreCycleOrderedAndComplete) {
    TracedRun run(countdownLoop(3, 10));
    const auto& events = run.tracer.events();
    ASSERT_FALSE(events.empty());
    std::uint64_t branches = 0;
    std::uint64_t stages = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(events[i].cycle, events[i - 1].cycle);
        }
        if (events[i].kind == TraceKind::kBranch) ++branches;
        if (events[i].kind == TraceKind::kStage) ++stages;
    }
    // The loop branch resolves once per iteration.
    EXPECT_EQ(branches, 10u);
    // Every committed instruction occupied MEM/WB for exactly one cycle, so
    // stage events at least cover the committed stream.
    EXPECT_GE(stages, run.result.stats.committed);
    EXPECT_FALSE(run.tracer.truncated());
}

TEST(TracerTest, WindowAndCapFilterEvents) {
    TracedRun full(countdownLoop(3, 20));
    TracedRun windowed(countdownLoop(3, 20), TracerConfig{.startCycle = 10,
                                                          .endCycle = 20});
    EXPECT_LT(windowed.tracer.events().size(), full.tracer.events().size());
    for (const TraceEvent& e : windowed.tracer.events()) {
        EXPECT_GE(e.cycle, 10u);
        EXPECT_LT(e.cycle, 20u);
    }
    TracedRun capped(countdownLoop(3, 20), TracerConfig{.maxEvents = 5});
    EXPECT_EQ(capped.tracer.events().size(), 5u);
    EXPECT_TRUE(capped.tracer.truncated());
}

TEST(TracerTest, ChromeExportIsValidJson) {
    TracedRun run(countdownLoop(3, 10));
    std::ostringstream out;
    run.tracer.writeChrome(out);
    const JsonParseResult parsed = parseJson(out.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue* events = parsed.value->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // Metadata (thread names) + every recorded event.
    EXPECT_GT(events->asArray().size(), run.tracer.events().size());
    for (const JsonValue& e : events->asArray()) {
        const JsonValue* ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string& kind = ph->asString();
        EXPECT_TRUE(kind == "X" || kind == "i" || kind == "M") << kind;
    }
}

TEST(TracerTest, JsonlExportIsOneValidObjectPerLine) {
    TracedRun run(countdownLoop(3, 5));
    std::ostringstream out;
    run.tracer.writeJsonl(out);
    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        const JsonParseResult parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error << ": " << line;
        EXPECT_NE(parsed.value->find("cycle"), nullptr);
        EXPECT_NE(parsed.value->find("kind"), nullptr);
        ++count;
    }
    EXPECT_EQ(count, run.tracer.events().size());
}

TEST(TracerTest, TracingDoesNotChangeSimulatedTiming) {
    const std::string src = countdownLoop(2, 50);
    const Program p = assemble(src);

    auto cyclesWith = [&p](Tracer* tracer) {
        Memory memory;
        memory.loadProgram(p);
        NotTakenPredictor predictor;
        PipelineConfig cfg = perfectCaches();
        cfg.tracer = tracer;
        PipelineSim sim(p, memory, predictor, cfg);
        return sim.run().stats.cycles;
    };

    Tracer tracer;
    EXPECT_EQ(cyclesWith(nullptr), cyclesWith(&tracer));
    EXPECT_FALSE(tracer.events().empty());
}

// ----------------------------------------------------------- sim report ----

SimReport fixtureReport() {
    FixtureRun run(3);
    NotTakenPredictor predictor;
    RunMeta meta;
    meta.benchmark = "countdown fixture";
    meta.predictor = predictor.name();
    meta.figure = "test";
    meta.asbr = true;
    meta.bitEntries = 16;
    meta.updateStage = valueStageName(ValueStage::kMemEnd);
    return makeSimReport(std::move(meta), run.result.stats, &predictor,
                         &run.unit);
}

TEST(SimReportTest, ExportValidatesAgainstOwnSchema) {
    const JsonValue doc = simReportJson(fixtureReport());
    const ReportValidation validation = validateSimReportJson(doc);
    EXPECT_TRUE(validation.ok()) << validation.errors.front();

    // And survives a serialize -> parse -> validate round trip.
    const JsonParseResult parsed = parseJson(doc.dump(2));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validateSimReportJson(*parsed.value).ok());
}

TEST(SimReportTest, MutatedDocumentsFailValidation) {
    auto mutate = [](auto&& f) {
        JsonValue doc = simReportJson(fixtureReport());
        f(doc);
        return validateSimReportJson(doc);
    };

    EXPECT_FALSE(mutate([](JsonValue& d) {
                     d.set("schema", "asbr.wrong_schema");
                 }).ok());
    EXPECT_FALSE(mutate([](JsonValue& d) {
                     d.set("version", std::uint64_t{99});
                 }).ok());
    EXPECT_FALSE(mutate([](JsonValue& d) { d.set("counters", 42); }).ok());
    EXPECT_FALSE(mutate([](JsonValue& d) {
                     // Break fold/predict accounting.
                     JsonValue* counters = nullptr;
                     for (auto& [key, value] : d.asObject())
                         if (key == "counters") counters = &value;
                     ASSERT_NE(counters, nullptr);
                     counters->set("pipeline.folded_branches",
                                   std::uint64_t{1});
                 }).ok());
    // Dropping a required counter fails too.
    EXPECT_FALSE(mutate([](JsonValue& d) {
                     JsonObject stripped;
                     for (auto& [key, value] : d.asObject()) {
                         if (key != "counters") {
                             stripped.emplace_back(key, std::move(value));
                             continue;
                         }
                         JsonObject kept;
                         for (auto& [name, v] : value.asObject())
                             if (name != "pipeline.cycles")
                                 kept.emplace_back(name, std::move(v));
                         stripped.emplace_back(key,
                                               JsonValue(std::move(kept)));
                     }
                     d = JsonValue(std::move(stripped));
                 }).ok());
}

TEST(SimReportTest, BenchReportWrapsAndValidates) {
    JsonObject options;
    options.emplace_back("seed", std::uint64_t{2001});
    const JsonValue doc = benchReportJson(
        "metrics_test", JsonValue(std::move(options)),
        {fixtureReport(), fixtureReport()});
    const ReportValidation validation = validateBenchReportJson(doc);
    EXPECT_TRUE(validation.ok()) << validation.errors.front();
    EXPECT_EQ(doc.find("runs")->asArray().size(), 2u);

    // An empty runs array is rejected.
    const JsonValue empty = benchReportJson("metrics_test", JsonValue(), {});
    EXPECT_FALSE(validateBenchReportJson(empty).ok());
}

}  // namespace
}  // namespace asbr
