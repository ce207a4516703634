// Decode-cache and sampled-simulation tests (docs/simulation.md).
//
// The decode cache must be invisible: rebinding discards stale records, and
// the fold replacements the ASBR unit injects are decoded fresh — never
// served from or written into the cache — so a fold at one fetch does not
// change what later fetches of the same PC execute.  Sampling must be
// architecturally exact (same program output as a full run, ASBR included)
// and its report byte-identical across engine thread counts; jumping across
// the shared fast-forward log must reproduce re-execution field for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "driver/artifacts.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "mem/memory.hpp"
#include "report/report.hpp"
#include "report/sampling_report.hpp"
#include "sim/decode_cache.hpp"
#include "sim/fast_forward_log.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "util/metrics.hpp"

namespace {

using namespace asbr;

constexpr const char* kExit = R"(
        li   v0, 1
        sys
)";

// ----------------------------------------------------------- decode cache --

TEST(DecodeCacheTest, LazyFillThenHit) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 3
        addiu t0, t0, 1
        move a0, t0
)") + kExit);
    DecodeCache cache(p);
    const DecodedOp& first = cache.lookup(p.textBase);
    EXPECT_EQ(first.pc, p.textBase);
    EXPECT_EQ(first.fallthrough, p.textBase + 4);
    EXPECT_EQ(cache.stats().lookups, 1u);
    EXPECT_EQ(cache.stats().fills, 1u);
    cache.lookup(p.textBase);
    EXPECT_EQ(cache.stats().lookups, 2u);
    EXPECT_EQ(cache.stats().fills, 1u);
    EXPECT_EQ(cache.stats().hits(), 1u);
}

// bind() decodes the whole text up front, yet lookup()'s statistics stay
// those of a cache that decodes a word on its first lookup: a fill per
// distinct PC, a hit per repeat, nothing for a lookup that throws.  at(),
// the walks' checked lookup, counts nothing.
TEST(DecodeCacheTest, BindDecodesEveryWordAndCountsFirstLookups) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 2
loop:   addiu t0, t0, -1
        bnez t0, loop
        j    done
        nop
done:   move a0, t0
        jal  leaf
)") + kExit + R"(
leaf:   jr   ra
)");
    DecodeCache cache(p);
    ASSERT_EQ(cache.records().size(), p.code.size());
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        const std::uint32_t pc =
            p.textBase + static_cast<std::uint32_t>(i) * kInstrBytes;
        const DecodedOp& got = cache.records()[i];
        const DecodedOp want = decodeOne(p.code[i], pc);
        EXPECT_EQ(got.ins, want.ins) << "word " << i;
        EXPECT_EQ(got.cls, want.cls) << "word " << i;
        EXPECT_EQ(got.cond, want.cond) << "word " << i;
        EXPECT_EQ(got.pc, pc) << "word " << i;
        EXPECT_EQ(got.fallthrough, want.fallthrough) << "word " << i;
        EXPECT_EQ(got.target, want.target) << "word " << i;
        EXPECT_EQ(got.fetchNext, want.fetchNext) << "word " << i;
        EXPECT_EQ(got.srcs.count, want.srcs.count) << "word " << i;
        EXPECT_EQ(got.srcs.regs, want.srcs.regs) << "word " << i;
        EXPECT_EQ(got.dest, want.dest) << "word " << i;
        EXPECT_EQ(got.writesDest, want.writesDest) << "word " << i;
        EXPECT_EQ(got.load, want.load) << "word " << i;
        EXPECT_EQ(got.store, want.store) << "word " << i;
        EXPECT_EQ(got.condBranch, want.condBranch) << "word " << i;
        EXPECT_EQ(&cache.at(pc), &got) << "word " << i;
        EXPECT_EQ(&cache.lookup(pc), &got) << "word " << i;
    }
    EXPECT_THROW((void)cache.at(p.textEnd()), EnsureError);
    EXPECT_THROW((void)cache.at(p.textBase + 1), EnsureError);
    EXPECT_EQ(cache.stats().lookups, p.code.size());  // at() counts nothing
    EXPECT_EQ(cache.stats().fills, p.code.size());

    cache.bind(p);  // forgets which words were looked up
    const std::uint32_t loop = p.symbol("loop");
    const std::uint32_t done = p.symbol("done");
    const std::uint32_t leaf = p.symbol("leaf");
    for (const std::uint32_t pc : {p.textBase, loop, loop + 4, loop, loop + 4,
                                   done, leaf, done, p.textBase})
        (void)cache.lookup(pc);
    EXPECT_THROW((void)cache.lookup(p.textEnd()), EnsureError);
    EXPECT_THROW((void)cache.lookup(loop + 2), EnsureError);
    EXPECT_EQ(cache.stats().lookups, p.code.size() + 9);
    EXPECT_EQ(cache.stats().fills, p.code.size() + 5);
    EXPECT_EQ(cache.stats().hits(), 4u);
}

TEST(DecodeCacheTest, RebindDiscardsStaleRecords) {
    const Program a = assemble(std::string("main:   li   a0, 1\n") + kExit);
    const Program b = assemble(std::string("main:   li   a0, 2\n") + kExit);
    ASSERT_EQ(a.textBase, b.textBase);
    DecodeCache cache(a);
    EXPECT_EQ(cache.lookup(a.textBase).ins.imm, 1);
    // Program reload: records decoded from image A must never be served —
    // the lookup after rebind refills (a second fill, not a stale hit).
    cache.bind(b);
    EXPECT_EQ(cache.lookup(b.textBase).ins.imm, 2);
    EXPECT_EQ(cache.stats().fills, 2u);
    EXPECT_EQ(cache.stats().hits(), 0u);
}

TEST(DecodeCacheTest, DecodeOneResolvesBranchTargets) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 2
loop:   addiu t0, t0, -1
        bnez t0, loop
        move a0, t0
)") + kExit);
    const std::uint32_t branchPc = p.symbol("loop") + 4;
    const DecodedOp dec = decodeOne(p.at(branchPc), branchPc);
    EXPECT_TRUE(dec.condBranch);
    EXPECT_EQ(dec.cls, ExecClass::kCondBranch);
    EXPECT_EQ(dec.target, p.symbol("loop"));
    EXPECT_EQ(dec.fallthrough, branchPc + 4);
    EXPECT_EQ(dec.fetchNext, branchPc + 4);  // predictor decides, not decode
}

// A BIT entry folds the loop branch on every iteration, injecting the
// branch-target instruction (BTI) as its replacement.  If the pipeline ever
// cached a replacement under the branch's fetch address, the next fetch
// there would hand the unit that instruction instead of the branch and trip
// its BIT-entry check.
TEST(DecodeCacheTest, FoldReplacementIsNotCachedUnderBranchPc) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 5
        li   t1, 0
loop:   addiu t0, t0, -1
        addiu t1, t1, 2
        nop
        nop
        bnez t0, loop
        move a0, t1
)") + kExit);
    const std::uint32_t pcs[] = {p.symbol("loop") + 16};  // the bnez
    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(p, pcs));

    Memory mem;
    mem.loadProgram(p);
    auto bp = makeBimodal2048();
    PipelineSim sim(p, mem, *bp, PipelineConfig{}, &unit);
    const PipelineResult r = sim.run();
    ASSERT_TRUE(r.exited);
    // 5 iterations of t1 += 2: four taken folds, then the exit's fall-through.
    EXPECT_EQ(r.exitCode, 10);
    EXPECT_EQ(unit.stats().folds, 5u);
    EXPECT_EQ(r.stats.foldedBranches, 5u);
    EXPECT_GT(r.stats.decodeCacheHits, 0u);
}

// A static-fold entry folds the same never-taken branch on *every* fetch,
// with a replacement that executes at the branch's own PC — the
// self-referencing case: repeated bypass of one cache slot, with the
// architectural result of the unfolded run.
TEST(DecodeCacheTest, RepeatedSelfReferencingFoldMatchesBaseline) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 5
        li   t1, 0
        li   t2, 1
loop:   beqz t2, done
        addiu t1, t1, 2
        addiu t0, t0, -1
        bnez t0, loop
done:   move a0, t1
)") + kExit);
    Memory baseMem;
    baseMem.loadProgram(p);
    auto baseBp = makeBimodal2048();
    PipelineSim base(p, baseMem, *baseBp);
    const PipelineResult expected = base.run();

    const std::uint32_t branchPc = p.symbol("loop");
    AsbrUnit unit;
    unit.loadStaticFolds({StaticFoldEntry{branchPc, false, Instruction{},
                                          branchPc}});
    Memory mem;
    mem.loadProgram(p);
    auto bp = makeBimodal2048();
    PipelineSim sim(p, mem, *bp, PipelineConfig{}, &unit);
    const PipelineResult r = sim.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, expected.exitCode);
    EXPECT_EQ(r.output, expected.output);
    EXPECT_EQ(r.stats.committed, expected.stats.committed);
    EXPECT_GE(unit.stats().staticFolds, 5u);
    EXPECT_GT(r.stats.foldedBranches, 0u);
}

// --------------------------------------------------------------- sampling --

driver::Prepared tinyWorkload(BenchId id = BenchId::kAdpcmEncode) {
    return driver::prepare(id, /*scheduled=*/true, /*seed=*/2001,
                           /*samples=*/1'000);
}

constexpr SamplingConfig kTinyWindows{500, 2'000, 8'000};

TEST(SamplingTest, SampledRunMatchesFullRunArchitecturally) {
    const driver::Prepared prepared = tinyWorkload();
    auto fullBp = makeBimodal2048();
    const PipelineResult full = driver::runPipeline(prepared, *fullBp);

    auto bp = makeBimodal2048();
    const SampledResult s = driver::runSampledPipeline(
        prepared, *bp, /*customizer=*/nullptr, kTinyWindows);
    EXPECT_TRUE(s.exited);
    EXPECT_EQ(s.exitCode, full.exitCode);
    EXPECT_EQ(s.output, full.output);
    EXPECT_EQ(s.totalInstructions, full.stats.committed);
    ASSERT_GE(s.windows.size(), 2u);
    // Warmup instructions are detailed but neither measured nor
    // fast-forwarded, so the two tracked classes undercount the total.
    EXPECT_LT(s.measuredInstructions + s.fastForwardInstructions,
              s.totalInstructions);
    std::uint64_t windowInstructions = 0;
    std::uint64_t windowCycles = 0;
    for (const SampleWindow& w : s.windows) {
        windowInstructions += w.instructions;
        windowCycles += w.cycles;
    }
    EXPECT_EQ(windowInstructions, s.measuredInstructions);
    EXPECT_EQ(windowCycles, s.measuredCycles);
    EXPECT_GT(s.cpiEstimate, 1.0);
}

TEST(SamplingTest, PipelinePollCountsCyclesAcrossWindows) {
    // A sampled run calls run() once per short window.  The poll schedule
    // follows the cumulative cycle count across those calls, so a deadline
    // is still checked although no single window reaches kWalkPollInterval
    // cycles.
    const driver::Prepared prepared = tinyWorkload(BenchId::kG721Encode);
    std::uint64_t polls = 0;
    PipelineConfig config;
    config.poll = [&polls] { ++polls; };
    auto bp = makeBimodal2048();
    const SampledResult s = driver::runSampledPipeline(
        prepared, *bp, /*customizer=*/nullptr, kTinyWindows, config);
    ASSERT_GT(s.stats.cycles, kWalkPollInterval);
    EXPECT_GE(polls, s.stats.cycles / kWalkPollInterval);

    // A poll that throws abandons the sampled run with its own exception.
    struct Abandoned {};
    config.poll = [] { throw Abandoned{}; };
    auto bp2 = makeBimodal2048();
    EXPECT_THROW((void)driver::runSampledPipeline(prepared, *bp2, nullptr,
                                                  kTinyWindows, config),
                 Abandoned);
}

TEST(SamplingTest, AsbrSampledRunKeepsDirectionBitsExact) {
    driver::SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.seed = 2001;
    job.samples = 1'000;
    job.asbr = true;
    driver::SimEngine engine;
    const auto workload = engine.workloadFor(job);
    const auto selection = engine.selectionFor(job);

    auto fullBp = makeBimodal2048();
    auto fullUnit = selection->makeUnit(false);
    const PipelineResult full =
        driver::runPipeline(workload->prepared(), *fullBp, fullUnit.get());

    auto bp = makeBimodal2048();
    auto unit = selection->makeUnit(false);
    const SampledResult s = driver::runSampledPipeline(
        workload->prepared(), *bp, unit.get(), kTinyWindows);
    // Skips land on the exact architectural state with the BDT resynced to
    // it, so the direction bits — and therefore the program output — are
    // exact.
    EXPECT_EQ(s.output, full.output);
    EXPECT_EQ(s.exitCode, full.exitCode);
    // A fold removes the branch from the committed stream (the replacement
    // commits in its place *and* covers the following instruction), so the
    // detailed full run commits fewer instructions than the architectural
    // count the fast-forward path reports.
    EXPECT_GE(s.totalInstructions, full.stats.committed);
    EXPECT_GT(s.stats.foldedBranches, 0u);
    const double refCpi = static_cast<double>(full.stats.cycles) /
                          static_cast<double>(full.stats.committed);
    EXPECT_NEAR(s.cpiEstimate, refCpi, refCpi * 0.05);
}

std::vector<driver::SimJob> sampledBatch() {
    std::vector<driver::SimJob> jobs;
    for (const BenchId id : {BenchId::kAdpcmEncode, BenchId::kAdpcmDecode}) {
        for (const bool asbr : {false, true}) {
            driver::SimJob job;
            job.workload = id;
            job.seed = 2001;
            job.samples = 1'000;
            job.asbr = asbr;
            job.sampled = true;
            job.sampling = kTinyWindows;
            job.sampleReference = true;
            jobs.push_back(job);
        }
    }
    return jobs;
}

std::vector<std::string> sampledReports(std::size_t threads) {
    driver::SimEngine engine({.threads = threads});
    std::vector<std::string> docs;
    for (const driver::JobResult& r : engine.run(sampledBatch())) {
        EXPECT_NE(r.sampled, nullptr);
        std::optional<SamplingReference> reference;
        if (r.hasReference)
            reference =
                SamplingReference{r.referenceCycles, r.referenceCommitted};
        docs.push_back(samplingReportJson(r.report.meta, kTinyWindows,
                                          *r.sampled, reference)
                           .dump(2));
    }
    return docs;
}

TEST(SamplingTest, ReportByteIdenticalAcrossThreadCounts) {
    const std::vector<std::string> serial = sampledReports(1);
    const std::vector<std::string> parallel = sampledReports(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
}

TEST(SamplingTest, ReportValidatesAndCatchesTampering) {
    const std::string doc = sampledReports(1).front();
    const JsonParseResult parsed = parseJson(doc);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(validate(*parsed.value, kSamplingReportSpec).ok());

    // An edited error verdict must be caught: within_bound is recomputed
    // from the integer fields by the validator.
    std::string flipped = doc;
    const std::string key = "\"within_bound\": true";
    const std::size_t at = flipped.find(key);
    ASSERT_NE(at, std::string::npos);
    flipped.replace(at, key.size(), "\"within_bound\": false");
    const JsonParseResult reparsed = parseJson(flipped);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_FALSE(validate(*reparsed.value, kSamplingReportSpec).ok());

    std::string badVersion = doc;
    const std::string ver = "\"version\": 1";
    const std::size_t vat = badVersion.find(ver);
    ASSERT_NE(vat, std::string::npos);
    badVersion.replace(vat, ver.size(), "\"version\": 99");
    const JsonParseResult reparsed2 = parseJson(badVersion);
    ASSERT_TRUE(reparsed2.ok());
    EXPECT_FALSE(validate(*reparsed2.value, kSamplingReportSpec).ok());
}

// ------------------------------------------------- fast-forward log replay --
//
// The reference is the per-cell loop the fast-forward log replaced: every
// skip re-executes its instructions on the cell's own ISS and replays each
// one's event stream into the unit.  Log replay — jumps, bare drift and one
// BDT resync per skip — must reproduce it field for field: windows, pipeline
// counters, per-site tables, AsbrStats, output and the sampling report's
// bytes.

/// Replay, architecturally, the customizer event stream one instruction
/// generates on its way down the pipeline: producer registration at ID, the
/// one value event at the customizer's capture stage, and the store port.
/// With zero instruction overlap this is exactly the in-order event
/// sequence, so BDT validity counters return to zero after every instruction
/// and direction bits track architectural values bit-for-bit.
void replayArchStep(AsbrUnit& unit, const DecodedOp& dec,
                    const StepResult& sr) {
    if (dec.writesDest) unit.onProducerDecoded(dec.dest);
    if (sr.write) unit.onValueAvailable(sr.write->reg, sr.write->value);
    if (sr.isStoreOp) unit.onStore(sr.memAddr, sr.storeValue);
    // There is no fetch stream to stall during a replay; drain any
    // parity-recovery debt so it cannot leak into later pipeline timing.
    (void)unit.takeRecoveryStall();
}

struct ReferenceRun {
    SampledResult result;
    bool exitedInSkip = false;  ///< the program exited inside a skip
};

ReferenceRun referenceRunSampled(const Program& program, Memory& memory,
                                 BranchPredictor& predictor,
                                 const SamplingConfig& sampling,
                                 AsbrUnit* unit) {
    PipelineSim sim(program, memory, predictor, PipelineConfig{}, unit);
    DecodeCache decode(program);
    ReferenceRun ref;
    SampledResult& out = ref.result;
    ArchState state = resetState(program);
    IoContext io;
    while (!io.exited) {
        sim.warmStart(state, io);
        if (sampling.warmup > 0) {
            sim.run(sampling.warmup);
            sim.warmStart(sim.archState(), sim.io());
        }
        const std::uint64_t preCycles = sim.stats().cycles;
        const std::uint64_t preCommitted = sim.stats().committed;
        if (!sim.io().exited) sim.run(sampling.measure);
        const std::uint64_t windowInstructions =
            sim.stats().committed - preCommitted;
        const std::uint64_t windowCycles = sim.stats().cycles - preCycles;
        state = sim.archState();
        io = sim.io();
        if (windowInstructions > 0) {
            out.windows.push_back(SampleWindow{
                preCommitted + out.fastForwardInstructions, windowInstructions,
                windowCycles});
            out.measuredInstructions += windowInstructions;
            out.measuredCycles += windowCycles;
        }
        if (io.exited) break;
        std::uint64_t skipped = 0;
        while (skipped < sampling.skip && !io.exited) {
            const DecodedOp& dec = decode.lookup(state.pc);
            const StepResult sr = stepDecoded(state, memory, dec, io);
            ++skipped;
            if (unit != nullptr) replayArchStep(*unit, dec, sr);
        }
        out.fastForwardInstructions += skipped;
        ref.exitedInSkip = io.exited;
    }
    out.stats = sim.stats();
    out.totalInstructions = out.stats.committed + out.fastForwardInstructions;
    out.exited = io.exited;
    out.exitCode = io.exitCode;
    out.output = std::move(io.output);
    out.cpiEstimate =
        out.measuredInstructions == 0
            ? 0.0
            : static_cast<double>(out.measuredCycles) /
                  static_cast<double>(out.measuredInstructions);
    const std::size_t n = out.windows.size();
    if (n >= 2) {
        double mean = 0.0;
        for (const SampleWindow& w : out.windows) mean += w.cpi();
        mean /= static_cast<double>(n);
        double varSum = 0.0;
        for (const SampleWindow& w : out.windows) {
            const double d = w.cpi() - mean;
            varSum += d * d;
        }
        const double stddev = std::sqrt(varSum / static_cast<double>(n - 1));
        out.ci95HalfWidth = 1.96 * stddev / std::sqrt(static_cast<double>(n));
    }
    return ref;
}

void expectSameUnit(const AsbrUnit& a, const AsbrUnit& b,
                    const std::string& what) {
    const AsbrStats& x = a.stats();
    const AsbrStats& y = b.stats();
    EXPECT_EQ(x.lookups, y.lookups) << what;
    EXPECT_EQ(x.folds, y.folds) << what;
    EXPECT_EQ(x.foldsTaken, y.foldsTaken) << what;
    EXPECT_EQ(x.blockedInvalid, y.blockedInvalid) << what;
    EXPECT_EQ(x.bankSwitches, y.bankSwitches) << what;
    EXPECT_EQ(x.parityRecoveries, y.parityRecoveries) << what;
    EXPECT_EQ(x.quarantinedBlocks, y.quarantinedBlocks) << what;
    EXPECT_EQ(x.staticFolds, y.staticFolds) << what;
    EXPECT_EQ(a.bit().activeBank(), b.bit().activeBank()) << what;
    for (std::uint8_t r = 0; r < kNumRegs; ++r) {
        EXPECT_EQ(a.bdt().pendingCount(r), b.bdt().pendingCount(r)) << what;
        for (int c = 0; c < kNumConds; ++c)
            EXPECT_EQ(a.bdt().direction(r, static_cast<Cond>(c)),
                      b.bdt().direction(r, static_cast<Cond>(c)))
                << what << " r" << int{r};
    }
}

/// Field-for-field equality of a log-replay run and the reference.
void expectSameRun(const SampledResult& got, const SampledResult& want,
                   const SamplingConfig& sampling, const AsbrUnit* gotUnit,
                   const AsbrUnit* wantUnit, const std::string& what) {
    ASSERT_EQ(got.windows.size(), want.windows.size()) << what;
    for (std::size_t i = 0; i < got.windows.size(); ++i) {
        EXPECT_EQ(got.windows[i].startInstruction,
                  want.windows[i].startInstruction)
            << what << " window " << i;
        EXPECT_EQ(got.windows[i].instructions, want.windows[i].instructions)
            << what << " window " << i;
        EXPECT_EQ(got.windows[i].cycles, want.windows[i].cycles)
            << what << " window " << i;
    }
    EXPECT_EQ(got.totalInstructions, want.totalInstructions) << what;
    EXPECT_EQ(got.fastForwardInstructions, want.fastForwardInstructions)
        << what;
    EXPECT_EQ(got.exited, want.exited) << what;
    EXPECT_EQ(got.exitCode, want.exitCode) << what;
    EXPECT_EQ(got.output, want.output) << what;
    // Every pipeline counter, cache counter and per-site table, plus the
    // unit's asbr.* metrics, as report bytes.
    const auto reportBytes = [&](const SampledResult& r, const AsbrUnit* u) {
        return simReportJson(makeSimReport(RunMeta{}, r.stats, nullptr, u))
            .dump(2);
    };
    EXPECT_EQ(reportBytes(got, gotUnit), reportBytes(want, wantUnit)) << what;
    EXPECT_EQ(got.stats.branchSites.size(), want.stats.branchSites.size())
        << what;
    EXPECT_EQ(samplingReportJson(RunMeta{}, sampling, got).dump(2),
              samplingReportJson(RunMeta{}, sampling, want).dump(2))
        << what;
    ASSERT_EQ(gotUnit == nullptr, wantUnit == nullptr) << what;
    if (gotUnit != nullptr) expectSameUnit(*gotUnit, *wantUnit, what);
}

/// The hardware variants the grid exercises: baseline, ASBR at EX-end and
/// at commit, parity-protected ASBR, and static folds.
struct Variant {
    const char* name;
    bool asbr = false;
    ValueStage stage = ValueStage::kMemEnd;
    bool parity = false;
    bool staticFolds = false;
};

constexpr Variant kVariants[] = {
    {"baseline"},
    {"asbr-ex_end", true, ValueStage::kExEnd},
    {"asbr-commit", true, ValueStage::kCommit},
    {"asbr-parity", true, ValueStage::kMemEnd, true},
    {"static-folds", true, ValueStage::kMemEnd, false, true},
};

/// Roughly 110k instructions per codec (instructions per input sample vary
/// from ~55 for G.711 decode to ~3.8k for G.721 encode).
std::size_t smallSamples(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return 1'000;
        case BenchId::kAdpcmDecode: return 1'400;
        case BenchId::kG721Encode: return 30;
        case BenchId::kG721Decode: return 32;
        case BenchId::kG711Encode: return 800;
        case BenchId::kG711Decode: return 2'000;
    }
    return 0;
}

TEST(FastForwardLogTest, ReplayMatchesReexecutionOnEveryCodec) {
    // 500:2000:8000 is the default-shaped geometry.  0:1000:300 sits below
    // the spacing floor, so its checkpoints lie four units (5,200
    // instructions) apart: most skips find no checkpoint ahead and only
    // step, the rest jump; and its skip is shorter than an ASBR cell's
    // accumulated drift (folds make a window cover more of the stream than
    // it commits), so the cells jump at other skips than the baseline.
    // 1000:2000:0 never skips and records no log, so every run there exits
    // inside a window.
    const SamplingConfig geometries[] = {
        {500, 2'000, 8'000}, {0, 1'000, 300}, {1'000, 2'000, 0}};
    driver::SimEngine engine;
    int exitsInSkip = 0;
    int exitsInWindow = 0;
    for (const BenchId id : kAllBenchesExtended) {
        for (const Variant& variant : kVariants) {
            driver::SimJob job;
            job.workload = id;
            job.samples = smallSamples(id);
            job.asbr = variant.asbr;
            job.updateStage = variant.stage;
            job.parityProtected = variant.parity;
            job.staticFolds = variant.staticFolds;
            const auto workload = engine.workloadFor(job);
            const driver::Prepared& prepared = workload->prepared();
            std::shared_ptr<const driver::SelectionArtifacts> selection;
            if (job.asbr) selection = engine.selectionFor(job);
            for (const SamplingConfig& sampling : geometries) {
                const std::string what =
                    std::string(driver::benchToken(id)) + "/" + variant.name +
                    "/" + std::to_string(sampling.warmup) + ":" +
                    std::to_string(sampling.measure) + ":" +
                    std::to_string(sampling.skip);
                std::unique_ptr<AsbrUnit> refUnit;
                std::unique_ptr<AsbrUnit> unit;
                if (selection != nullptr) {
                    refUnit = selection->makeUnit(variant.parity);
                    unit = selection->makeUnit(variant.parity);
                }
                Memory refMemory = driver::makeMemory(prepared);
                auto refBp = makeBimodal2048();
                const ReferenceRun ref = referenceRunSampled(
                    prepared.program, refMemory, *refBp, sampling,
                    refUnit.get());
                ++(ref.exitedInSkip ? exitsInSkip : exitsInWindow);

                auto bp = makeBimodal2048();
                const SampledResult got = driver::runSampledPipeline(
                    prepared, *bp, unit.get(),
                    *workload->fastForwardLog(sampling));
                expectSameRun(got, ref.result, sampling, unit.get(),
                              refUnit.get(), what);
                if (variant.asbr) {
                    EXPECT_GT(got.stats.foldedBranches, 0u) << what;
                }
            }
        }
    }
    EXPECT_GT(exitsInSkip, 0);
    EXPECT_GT(exitsInWindow, 0);
}

TEST(FastForwardLogTest, OneShotRunMatchesSharedLogRun) {
    driver::SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.samples = 1'000;
    job.asbr = true;
    driver::SimEngine engine;
    const auto workload = engine.workloadFor(job);
    const auto selection = engine.selectionFor(job);
    auto unitA = selection->makeUnit(false);
    auto unitB = selection->makeUnit(false);
    auto bpA = makeBimodal2048();
    auto bpB = makeBimodal2048();
    const SampledResult shared = driver::runSampledPipeline(
        workload->prepared(), *bpA, unitA.get(),
        *workload->fastForwardLog(kTinyWindows));
    const SampledResult oneShot = driver::runSampledPipeline(
        workload->prepared(), *bpB, unitB.get(), kTinyWindows);
    expectSameRun(oneShot, shared, kTinyWindows, unitB.get(), unitA.get(),
                  "one-shot");
    // Once per geometry: a second request is the same object.
    EXPECT_EQ(workload->fastForwardLog(kTinyWindows),
              workload->fastForwardLog(kTinyWindows));
}

TEST(FastForwardLogTest, BankSelectStoresInsideSkipsReplayExactly) {
    // Two loops on two BIT banks, selected by a store to the control
    // register before each loop, two hundred times over: most of the 400
    // stores land in skipped stretches, and those a jump crosses reach the
    // unit only from the log.  Each pass also prints its counter, so output
    // produced inside a skip must come back from the log as well.
    const Program p = assemble(std::string(R"(
main:   lui  t8, 0xFFFF
        li   s2, 200
outer:  li   v0, 3
        move a0, s2
        sys                 # print the pass counter
        li   t7, 0
        sw   t7, 0(t8)      # select bank 0
        li   s0, 30
l1:     addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 1
        bnez s0, l1
        li   t7, 1
        sw   t7, 0(t8)      # select bank 1
        li   s1, 30
l2:     addiu s1, s1, -1
        addiu t3, t3, 1
        addiu t4, t4, 1
        bnez s1, l2
        addiu s2, s2, -1
        bnez s2, outer
        move a0, t3
)") + kExit);
    AsbrConfig config;
    config.bitCapacity = 1;
    config.bitBanks = 2;
    const auto makeUnit = [&] {
        auto unit = std::make_unique<AsbrUnit>(config);
        unit->loadBank(0, extractBranchInfos(p, std::vector<std::uint32_t>{
                                                    p.symbol("l1") + 12}));
        unit->loadBank(1, extractBranchInfos(p, std::vector<std::uint32_t>{
                                                    p.symbol("l2") + 12}));
        return unit;
    };
    // Checkpoints every 4,400 and every 4,100 instructions.
    for (const SamplingConfig sampling :
         {SamplingConfig{0, 200, 2'000}, SamplingConfig{100, 300, 3'700}}) {
        Memory refMemory;
        refMemory.loadProgram(p);
        auto refUnit = makeUnit();
        auto refBp = makeBimodal2048();
        const ReferenceRun ref = referenceRunSampled(p, refMemory, *refBp,
                                                     sampling, refUnit.get());

        Memory walk;
        walk.loadProgram(p);
        const FastForwardLog log = FastForwardLog::record(
            p, walk, sampling, PipelineConfig{}.maxCycles);
        EXPECT_EQ(log.bankSelects(0, log.instructions()).size(), 400u);
        EXPECT_GT(log.checkpoints().size(), 10u);
        Memory memory;
        memory.loadProgram(p);
        auto unit = makeUnit();
        auto bp = makeBimodal2048();
        const SampledResult got = runSampled(p, memory, *bp, log, {}, unit.get());
        expectSameRun(got, ref.result, sampling, unit.get(), refUnit.get(),
                      "bank-select");
        EXPECT_EQ(unit->stats().bankSwitches, 400u);
        EXPECT_EQ(unit->bit().activeBank(), 1u);
        EXPECT_GT(unit->stats().folds, 0u);
        EXPECT_EQ(got.exitCode, 200 * 30);
        EXPECT_EQ(got.output.substr(0, 9), "200199198");
    }
}

TEST(FastForwardLogTest, TinyGeometriesKeepTheLogBounded) {
    // A unit of a few instructions would put a checkpoint at every window
    // start; the spacing floor keeps at most one per kMinSpacing
    // instructions, and a geometry that never skips records nothing.
    driver::SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.samples = 300;
    job.asbr = true;
    driver::SimEngine engine;
    const auto workload = engine.workloadFor(job);
    const auto selection = engine.selectionFor(job);
    const driver::Prepared& prepared = workload->prepared();
    for (const SamplingConfig sampling :
         {SamplingConfig{0, 1, 0}, SamplingConfig{1, 1, 1},
          SamplingConfig{100, 100, 100}}) {
        const std::string what = std::to_string(sampling.warmup) + ":" +
                                 std::to_string(sampling.measure) + ":" +
                                 std::to_string(sampling.skip);
        const auto log = workload->fastForwardLog(sampling);
        const std::uint64_t unitLength =
            sampling.warmup + sampling.measure + sampling.skip;
        if (sampling.skip == 0) {
            EXPECT_TRUE(log->checkpoints().empty()) << what;
            EXPECT_EQ(log->instructions(), 0u) << what;
        } else {
            EXPECT_EQ(log->spacing() % unitLength, 0u) << what;
            EXPECT_GE(log->spacing(), FastForwardLog::kMinSpacing) << what;
            EXPECT_LT(log->spacing(), FastForwardLog::kMinSpacing + unitLength)
                << what;
            EXPECT_GT(log->instructions(), 30'000u) << what;
            EXPECT_LE(log->checkpoints().size(),
                      log->instructions() / FastForwardLog::kMinSpacing + 2)
                << what;
        }
        for (const bool asbr : {false, true}) {
            std::unique_ptr<AsbrUnit> refUnit;
            std::unique_ptr<AsbrUnit> unit;
            if (asbr) {
                refUnit = selection->makeUnit(false);
                unit = selection->makeUnit(false);
            }
            Memory refMemory = driver::makeMemory(prepared);
            auto refBp = makeBimodal2048();
            const ReferenceRun ref = referenceRunSampled(
                prepared.program, refMemory, *refBp, sampling, refUnit.get());
            auto bp = makeBimodal2048();
            const SampledResult got =
                driver::runSampledPipeline(prepared, *bp, unit.get(), *log);
            expectSameRun(got, ref.result, sampling, unit.get(), refUnit.get(),
                          what + (asbr ? "/asbr" : "/baseline"));
        }
    }
}

TEST(FastForwardLogTest, WalkPollsAndCanBeAbandoned) {
    // The engine checks a job's deadline from the walk's poll; a throwing
    // poll abandons the walk.
    const Program p = assemble("main:   j    main\n");
    Memory memory;
    memory.loadProgram(p);
    int polls = 0;
    const auto poll = [&polls] {
        if (++polls == 3) throw JobTimeoutError("walk abandoned");
    };
    EXPECT_THROW((void)FastForwardLog::record(p, memory, kTinyWindows,
                                              std::uint64_t{1} << 30, poll),
                 JobTimeoutError);
    EXPECT_EQ(polls, 3);
}

TEST(FastForwardLogTest, RunawayWalkHitsTheInstructionBound) {
    const Program p = assemble("main:   j    main\n");
    Memory memory;
    memory.loadProgram(p);
    EXPECT_THROW((void)FastForwardLog::record(p, memory, kTinyWindows, 25'000),
                 SimTimeoutError);
}

TEST(FastForwardLogTest, LargestSweepLogPacksUnderItsBudget) {
    // G.711 decode at the sampled-sweep size (~15M instructions) writes the
    // most words per interval of the six codecs: its output buffer fills
    // sequentially.  Runs of consecutive words keep the log near 4 bytes
    // per written word; raw (address, value) pairs would take 8.
    const std::size_t samples =
        std::min<std::size_t>(15'000'000 / 55,
                              benchMaxSamples(BenchId::kG711Decode));
    const driver::Prepared prepared =
        driver::prepare(BenchId::kG711Decode, true, 2001, samples);
    Memory memory = driver::makeMemory(prepared);
    const FastForwardLog log = FastForwardLog::record(
        prepared.program, memory, SamplingConfig{1'000, 2'000, 200'000},
        PipelineConfig{}.maxCycles);
    EXPECT_GT(log.instructions(), 10'000'000u);
    EXPECT_GT(log.writtenWords(), 100'000u);
    EXPECT_LE(static_cast<double>(log.packedBytes()),
              4.5 * static_cast<double>(log.writtenWords()));
}

TEST(SamplingTest, PublishRegistersSimCounters) {
    MetricRegistry registry;
    SampledResult{}.publish(registry);
    SimSpeed{}.publish(registry);
    std::vector<std::string> names;
    for (const auto& entry : registry.catalogue()) names.push_back(entry.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "sim.sampled_windows"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "sim.mips"), names.end());
}

}  // namespace
