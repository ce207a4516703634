// Tests for the robustness layer (docs/fault-injection.md): BDT/BIT parity
// protection, validity-counter edge cases under injected corruption, the
// pipeline watchdog, fault-site plumbing, campaign classification against
// the golden model, and the asbr.fault_report schema.
#include <gtest/gtest.h>

#include <memory>

#include "bp/bimodal.hpp"
#include "bp/static_predictors.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "isa/encoding.hpp"
#include "mem/memory.hpp"
#include "report/fault_report.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"

namespace asbr {
namespace {

// ------------------------------------------------------------ BDT parity ----

TEST(BdtParityTest, LegitimateWritesKeepParityConsistent) {
    BranchDirectionTable bdt;
    for (std::uint8_t r = 0; r < kNumRegs; ++r) EXPECT_TRUE(bdt.parityOk(r));
    bdt.producerDecoded(5);
    EXPECT_TRUE(bdt.parityOk(5));
    bdt.update(5, -17);
    EXPECT_TRUE(bdt.parityOk(5));
    bdt.producerDecoded(5);
    bdt.producerDecoded(5);
    EXPECT_TRUE(bdt.parityOk(5));
    bdt.reset();
    EXPECT_TRUE(bdt.parityOk(5));
}

TEST(BdtParityTest, AnySingleBitFlipBreaksParity) {
    for (int c = 0; c < kNumConds; ++c) {
        BranchDirectionTable bdt;
        bdt.flipConditionBit(4, static_cast<Cond>(c));
        EXPECT_FALSE(bdt.parityOk(4)) << "cond " << c;
        EXPECT_TRUE(bdt.parityOk(5));  // other entries untouched
    }
    for (unsigned bit = 0; bit < 3; ++bit) {
        BranchDirectionTable bdt;
        bdt.flipPendingBit(4, bit);
        EXPECT_FALSE(bdt.parityOk(4)) << "counter bit " << bit;
    }
    BranchDirectionTable bdt;
    bdt.flipParityBit(4);
    EXPECT_FALSE(bdt.parityOk(4));
}

TEST(BdtParityTest, AnyDoubleBitFlipEscapesParity) {
    // One parity bit detects odd numbers of flips only: every pair of the
    // entry's condition, counter and parity bits cancels out.
    const auto flip = [](BranchDirectionTable& bdt, int bit) {
        if (bit < kNumConds)
            bdt.flipConditionBit(4, static_cast<Cond>(bit));
        else if (bit < kNumConds + 3)
            bdt.flipPendingBit(4, static_cast<unsigned>(bit - kNumConds));
        else
            bdt.flipParityBit(4);
    };
    constexpr int kBits = kNumConds + 3 + 1;
    for (int a = 0; a < kBits; ++a) {
        for (int b = a + 1; b < kBits; ++b) {
            BranchDirectionTable bdt;
            bdt.producerDecoded(4);
            flip(bdt, a);
            EXPECT_FALSE(bdt.parityOk(4)) << "bit " << a;
            flip(bdt, b);
            EXPECT_TRUE(bdt.parityOk(4)) << "bits " << a << ", " << b;
        }
    }
}

TEST(BdtParityTest, LegitimateWriteClearsAnEarlierFlip) {
    // A legitimate write recomputes the parity bit over what the entry holds
    // then, so an undetected earlier flip is absorbed, not reported later.
    BranchDirectionTable bdt;
    bdt.flipParityBit(3);
    EXPECT_FALSE(bdt.parityOk(3));
    bdt.producerDecoded(3);
    EXPECT_TRUE(bdt.parityOk(3));
    bdt.flipConditionBit(3, Cond::kLtz);
    EXPECT_FALSE(bdt.parityOk(3));
    bdt.update(3, -5);  // rewrites every condition bit and the parity
    EXPECT_TRUE(bdt.parityOk(3));
    EXPECT_TRUE(bdt.direction(3, Cond::kLtz));
    bdt.flipPendingBit(3, 1);  // counter 0 -> 2
    EXPECT_FALSE(bdt.parityOk(3));
    bdt.producerDecoded(3);  // counts on from the corrupted value
    EXPECT_EQ(bdt.pendingCount(3), 3u);
    EXPECT_TRUE(bdt.parityOk(3));
    bdt.reset();
    bdt.flipParityBit(3);
    bdt.resync(3, 7);
    EXPECT_TRUE(bdt.parityOk(3));
    bdt.flipParityBit(3);
    bdt.reset();
    EXPECT_TRUE(bdt.parityOk(3));
}

TEST(BdtParityTest, QuarantineTakesEntryOutOfService) {
    BranchDirectionTable bdt;
    bdt.producerDecoded(6);
    bdt.quarantine(6);
    EXPECT_TRUE(bdt.isQuarantined(6));
    EXPECT_FALSE(bdt.isValid(6));
    // Producer tracking becomes a no-op: no saturation, no underflow.
    const std::uint32_t pending = bdt.pendingCount(6);
    bdt.producerDecoded(6);
    bdt.update(6, 1);
    EXPECT_EQ(bdt.pendingCount(6), pending);
    EXPECT_FALSE(bdt.isValid(6));
    bdt.reset();
    EXPECT_FALSE(bdt.isQuarantined(6));
    EXPECT_TRUE(bdt.isValid(6));
}

// ---------------------------------------------- BDT counter edge cases ----

TEST(BdtEdgeTest, ValidityCounterSaturationThrows) {
    BranchDirectionTable bdt;
    for (std::uint8_t i = 0; i < BranchDirectionTable::kMaxPending; ++i)
        bdt.producerDecoded(3);
    EXPECT_EQ(bdt.pendingCount(3), BranchDirectionTable::kMaxPending);
    EXPECT_THROW(bdt.producerDecoded(3), EnsureError);
}

TEST(BdtEdgeTest, DecrementBelowZeroThrows) {
    BranchDirectionTable bdt;
    EXPECT_THROW(bdt.update(3, 1), EnsureError);
    // An injected counter flip can manufacture the same underflow: one
    // producer in flight, the flip clears the counter, and the matching
    // update then has nothing to decrement.
    bdt.producerDecoded(4);
    bdt.flipPendingBit(4, 0);
    EXPECT_EQ(bdt.pendingCount(4), 0u);
    EXPECT_THROW(bdt.update(4, 1), EnsureError);
}

TEST(BdtEdgeTest, CorruptedZeroCounterLooksFoldableButFailsParity) {
    // The dangerous corruption: a producer is in flight (folding illegal),
    // the flip zeroes the counter, and the entry now *looks* foldable with
    // stale direction bits.  Unprotected hardware would fold; the parity
    // check is what catches it.
    BranchDirectionTable bdt;
    bdt.producerDecoded(7);
    EXPECT_FALSE(bdt.isValid(7));
    bdt.flipPendingBit(7, 0);
    EXPECT_TRUE(bdt.isValid(7));      // fold-legality gate is fooled
    EXPECT_FALSE(bdt.parityOk(7));    // ... but parity is not
}

TEST(BdtEdgeTest, CounterBitFlipUpwardsBlocksFoldingForever) {
    // The benign direction: a flip that *raises* the counter permanently
    // blocks folding (fail-safe) because the phantom producer never retires.
    BranchDirectionTable bdt;
    bdt.flipPendingBit(9, 2);
    EXPECT_EQ(bdt.pendingCount(9), 4u);
    EXPECT_FALSE(bdt.isValid(9));
    EXPECT_FALSE(bdt.parityOk(9));
}

// ------------------------------------------------------------ BIT parity ----

std::vector<BranchInfo> oneEntry() {
    const Program p = assemble(R"(
main:   addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 2
        bnez  s0, main
        li   v0, 1
        li   a0, 0
        sys
)");
    const std::uint32_t pcs[] = {kTextBase + 12};
    return extractBranchInfos(p, pcs);
}

TEST(BitParityTest, FreshBankPassesProtectedLookup) {
    BranchIdentificationTable bit(4);
    bit.loadBank(0, oneEntry());
    bool recovered = true;
    const BranchInfo* e = bit.lookupProtected(kTextBase + 12, recovered);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(recovered);
}

TEST(BitParityTest, EveryFieldFlipIsDetectedAndInvalidates) {
    for (const BitField field :
         {BitField::kPc, BitField::kDi, BitField::kBta, BitField::kBti,
          BitField::kBfi, BitField::kParity}) {
        for (unsigned bit = 0; bit < bitFieldWidth(field); bit += 7) {
            BranchIdentificationTable table(4);
            table.loadBank(0, oneEntry());
            table.flipEntryBit(0, 0, field, bit);
            // The flip may move the PC tag; a protected lookup of either the
            // original or the shifted tag must detect the mismatch.
            const std::uint32_t pc = table.entryInfo(0, 0).pc;
            bool recovered = false;
            EXPECT_EQ(table.lookupProtected(pc, recovered), nullptr)
                << "field " << static_cast<int>(field) << " bit " << bit;
            EXPECT_TRUE(recovered);
            // Recovery invalidates: the entry is gone for the rest of the run.
            EXPECT_EQ(table.lookupProtected(pc, recovered), nullptr);
            EXPECT_FALSE(recovered);
        }
    }
}

TEST(BitParityTest, UnprotectedUndecodableReplacementTraps) {
    BranchIdentificationTable table(4);
    table.loadBank(0, oneEntry());
    const std::uint32_t pc = table.entryInfo(0, 0).pc;
    // Find an opcode-field flip that makes the BTI word undecodable.
    const std::uint32_t word = encode(table.entryInfo(0, 0).bti);
    unsigned badBit = 32;
    for (unsigned bit = 26; bit < 32; ++bit) {
        try {
            (void)decode(word ^ (1u << bit));
        } catch (const EnsureError&) {
            badBit = bit;
            break;
        }
    }
    ASSERT_LT(badBit, 32u) << "no opcode flip decodes invalid — widen search";
    table.flipEntryBit(0, 0, BitField::kBti, badBit);
    EXPECT_THROW((void)table.lookup(pc), EnsureError);
}

// ------------------------------------------------------------- watchdog ----

TEST(WatchdogTest, PipelineInfiniteLoopRaisesSimTimeout) {
    const Program p = assemble("main: j main\n");
    Memory m;
    m.loadProgram(p);
    NotTakenPredictor bp;
    PipelineConfig cfg;
    cfg.maxCycles = 1000;
    PipelineSim sim(p, m, bp, cfg);
    EXPECT_THROW(sim.run(), SimTimeoutError);
}

TEST(WatchdogTest, FunctionalInfiniteLoopRaisesSimTimeout) {
    const Program p = assemble("main: j main\n");
    Memory m;
    m.loadProgram(p);
    FunctionalSim sim(p, m);
    EXPECT_THROW(sim.run(1000), SimTimeoutError);
}

TEST(WatchdogTest, TimeoutIsAnEnsureError) {
    // Pre-existing catch sites treat runaway programs as EnsureError; the
    // refined type must stay inside that family.
    const Program p = assemble("main: j main\n");
    Memory m;
    m.loadProgram(p);
    FunctionalSim sim(p, m);
    bool caught = false;
    try {
        (void)sim.run(100);
    } catch (const EnsureError&) {
        caught = true;
    }
    EXPECT_TRUE(caught);
}

// --------------------------------------------------------- fault plumbing ----

TEST(FaultSiteTest, JsonRoundTrip) {
    FaultSite bdtSite;
    bdtSite.unit = FaultUnit::kBdtCond;
    bdtSite.reg = 17;
    bdtSite.cond = 3;
    FaultSite bitSite;
    bitSite.unit = FaultUnit::kBit;
    bitSite.entry = 2;
    bitSite.field = BitField::kBfi;
    bitSite.bit = 22;
    FaultSite bpSite;
    bpSite.unit = FaultUnit::kBpCounter;
    bpSite.index = 511;
    bpSite.bit = 1;
    for (const FaultSite& site : {bdtSite, bitSite, bpSite}) {
        const FaultSite back = faultSiteFromJson(faultSiteJson(site));
        EXPECT_EQ(back, site) << describeSite(site);
    }
    EXPECT_THROW((void)faultSiteFromJson(JsonValue{"nope"}), EnsureError);
    JsonObject bad;
    bad.emplace_back("unit", "warp_core");
    EXPECT_THROW((void)faultSiteFromJson(JsonValue{std::move(bad)}),
                 EnsureError);
}

TEST(FaultSiteTest, EnumerationCoversAllClasses) {
    AsbrUnit unit;
    unit.loadBank(0, oneEntry());
    BimodalPredictor bimodal(64, 64);
    const auto sites = enumerateSites(unit, &bimodal);
    std::size_t bdt = 0, bit = 0, bp = 0;
    for (const FaultSite& s : sites) {
        if (s.unit == FaultUnit::kBit) ++bit;
        else if (s.unit == FaultUnit::kBpCounter) ++bp;
        else ++bdt;
    }
    // One condition register: 6 cond bits + 3 counter bits + 1 parity bit.
    EXPECT_EQ(bdt, 10u);
    // One BIT entry: 32 (pc) + 8 (di) + 32 (bta) + 32+32 (bti/bfi) + parity.
    EXPECT_EQ(bit, 137u);
    EXPECT_EQ(bp, 2u * 64u);
    const auto noBp = enumerateSites(unit, nullptr);
    EXPECT_EQ(noBp.size(), bdt + bit);
}

// ------------------------------------------------------------- campaigns ----

PipelineConfig fastConfig() {
    PipelineConfig cfg;
    cfg.icache.missPenalty = 0;
    cfg.dcache.missPenalty = 0;
    cfg.redirectBubbles = 0;
    return cfg;
}

/// Countdown loop with two fillers: condition distance 3, folds at mem_end.
constexpr const char* kLoopSrc = R"(
main:   li   s0, 30
loop:   addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 2
        bnez  s0, loop
        li   v0, 1
        li   a0, 0
        sys
)";
constexpr std::uint32_t kLoopBranchPc = kTextBase + 4 * 4;

/// Loop guarded by a register written exactly once: after the setup write,
/// the BDT entry for s1 is never refreshed, so an injected direction-bit
/// flip stays stale until the fold consumes it — the worst-case SDC victim.
/// (In kLoopSrc the producer rewrites the entry every iteration at MEM,
/// which scrubs any flip before fetch can read it.)
constexpr const char* kConstGuardSrc = R"(
main:   li   s1, 1
        li   s0, 30
loop:   addiu s0, s0, -1
        addiu t1, t1, 1
        beqz  s0, done
        bnez  s1, loop
done:   li   v0, 1
        li   a0, 0
        sys
)";
constexpr std::uint32_t kConstGuardBranchPc = kTextBase + 5 * 4;

FaultRunFactory toyFactory(std::shared_ptr<const Program> program,
                           std::uint32_t branchPc, bool protectedMode) {
    return [program, branchPc, protectedMode]() {
        FaultRun run;
        run.program = program.get();
        run.memory.loadProgram(*program);
        auto bimodal = std::make_unique<BimodalPredictor>(64, 64);
        run.bimodalTarget = bimodal.get();
        run.predictor = std::move(bimodal);
        AsbrConfig cfg;
        cfg.updateStage = ValueStage::kMemEnd;
        cfg.bitCapacity = 4;
        cfg.parityProtected = protectedMode;
        run.unit = std::make_unique<AsbrUnit>(cfg);
        const std::uint32_t pcs[] = {branchPc};
        run.unit->loadBank(0, extractBranchInfos(*program, pcs));
        run.config = fastConfig();
        return run;
    };
}

std::shared_ptr<const Program> toyProgram() {
    return std::make_shared<const Program>(assemble(kLoopSrc));
}

TEST(CampaignTest, ContextAnchorsPipelineToGoldenModel) {
    const CampaignContext context = computeContext(toyFactory(toyProgram(), kLoopBranchPc, false));
    EXPECT_GT(context.cleanCycles, 0u);
    EXPECT_EQ(context.golden.exitCode, 0);
    EXPECT_EQ(context.cleanRecoveries, 0u);
}

TEST(CampaignTest, SameSeedIsBitReproducible) {
    const auto program = toyProgram();
    CampaignConfig config;
    config.seed = 42;
    config.injections = 12;
    const CampaignResult a = runCampaign(toyFactory(program, kLoopBranchPc, false), config);
    const CampaignResult b = runCampaign(toyFactory(program, kLoopBranchPc, false), config);
    EXPECT_EQ(a.outcomes, b.outcomes);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].injection.site, b.records[i].injection.site);
        EXPECT_EQ(a.records[i].injection.cycle, b.records[i].injection.cycle);
        EXPECT_EQ(a.records[i].outcome, b.records[i].outcome);
        EXPECT_EQ(a.records[i].cycles, b.records[i].cycles);
    }
    std::uint64_t sum = 0;
    for (const std::uint64_t n : a.outcomes) sum += n;
    EXPECT_EQ(sum, config.injections);
}

/// Find a cycle where flipping the loop predicate's kNez direction bit
/// silently corrupts the result on unprotected hardware.
std::uint64_t findSdcCycle(const FaultRunFactory& factory,
                           const CampaignContext& context,
                           const FaultSite& site) {
    for (std::uint64_t cycle = 1;
         cycle <= context.cleanCycles; ++cycle) {
        const InjectionRecord r =
            runInjection(factory, {site, cycle}, context, 4);
        if (r.outcome == FaultOutcome::kSdc) return cycle;
    }
    return 0;
}

FaultSite loopPredicateSite() {
    FaultSite site;
    site.unit = FaultUnit::kBdtCond;
    site.reg = reg::s0 + 1;  // s1, the once-written guard register
    site.cond = static_cast<std::uint32_t>(Cond::kNez);
    return site;
}

std::shared_ptr<const Program> constGuardProgram() {
    return std::make_shared<const Program>(assemble(kConstGuardSrc));
}

TEST(CampaignTest, UnprotectedConditionFlipCausesSdc) {
    const auto program = constGuardProgram();
    const FaultRunFactory factory =
        toyFactory(program, kConstGuardBranchPc, false);
    const CampaignContext context = computeContext(factory);
    const std::uint64_t cycle =
        findSdcCycle(factory, context, loopPredicateSite());
    ASSERT_NE(cycle, 0u)
        << "no cycle produced an SDC — the stale-direction hazard is gone?";
    const InjectionRecord r =
        runInjection(factory, {loopPredicateSite(), cycle}, context, 4);
    EXPECT_EQ(r.outcome, FaultOutcome::kSdc);
    EXPECT_EQ(r.recoveries, 0u);
    EXPECT_FALSE(r.detail.empty());
}

TEST(CampaignTest, ProtectionConvertsSdcToDetectedRecovered) {
    const auto program = constGuardProgram();
    const FaultRunFactory unprotectedFactory =
        toyFactory(program, kConstGuardBranchPc, false);
    const CampaignContext unprotectedContext =
        computeContext(unprotectedFactory);
    const std::uint64_t cycle = findSdcCycle(
        unprotectedFactory, unprotectedContext, loopPredicateSite());
    ASSERT_NE(cycle, 0u);

    const FaultRunFactory protectedFactory =
        toyFactory(program, kConstGuardBranchPc, true);
    const CampaignContext protectedContext = computeContext(protectedFactory);
    // With zero faults, protection must not change timing at all.
    EXPECT_EQ(protectedContext.cleanCycles, unprotectedContext.cleanCycles);

    const InjectionRecord r = runInjection(
        protectedFactory, {loopPredicateSite(), cycle}, protectedContext, 4);
    EXPECT_EQ(r.outcome, FaultOutcome::kDetectedRecovered)
        << faultOutcomeName(r.outcome) << " — " << r.detail;
    EXPECT_GE(r.recoveries, 1u);
    // Recovery costs cycles (quarantine kills folding + scrub bubbles).
    EXPECT_GE(r.cycles, protectedContext.cleanCycles);
}

TEST(CampaignTest, CorruptedDirectionIndexAbortsUnprotected) {
    // Flipping the DI register field makes the BIT entry disagree with the
    // fetched instruction — the fold logic's integrity check must trap.
    const auto program = toyProgram();
    const FaultRunFactory factory = toyFactory(program, kLoopBranchPc, false);
    const CampaignContext context = computeContext(factory);
    FaultSite site;
    site.unit = FaultUnit::kBit;
    site.entry = 0;
    site.field = BitField::kDi;
    site.bit = 0;  // conditionReg bit
    const InjectionRecord r = runInjection(factory, {site, 1}, context, 4);
    EXPECT_EQ(r.outcome, FaultOutcome::kDetectedAborted)
        << faultOutcomeName(r.outcome);
    EXPECT_FALSE(r.detail.empty());
}

TEST(CampaignTest, InjectionThatNeverFiresLeavesTheRecordClean) {
    // Cycle 0 names no cycle (the first is 1).  At the last clean cycle the
    // exit is draining and fetch no longer reads the BIT; one cycle past it,
    // and far past it, the program has already exited.  So none of these
    // flips takes effect, and none may add a cycle to the record.  The site
    // is the DI flip that aborts the run when it lands at cycle 1.
    const auto program = toyProgram();
    const FaultRunFactory factory = toyFactory(program, kLoopBranchPc, false);
    const CampaignContext context = computeContext(factory);
    FaultSite site;
    site.unit = FaultUnit::kBit;
    site.entry = 0;
    site.field = BitField::kDi;
    site.bit = 0;
    const std::uint64_t last = context.cleanCycles;
    for (const std::uint64_t cycle :
         {std::uint64_t{0}, last, last + 1, last + 1000}) {
        const InjectionRecord r = runInjection(factory, {site, cycle}, context, 4);
        EXPECT_EQ(r.outcome, FaultOutcome::kMasked)
            << "cycle " << cycle << ": " << faultOutcomeName(r.outcome)
            << " — " << r.detail;
        EXPECT_EQ(r.cycles, context.cleanCycles) << "cycle " << cycle;
    }
}

TEST(CampaignTest, ProtectedCampaignHasNoSilentCorruption) {
    const auto program = toyProgram();
    CampaignConfig config;
    config.seed = 2001;
    config.injections = 24;
    const CampaignResult unprotectedResult =
        runCampaign(toyFactory(program, kLoopBranchPc, false), config);
    const CampaignResult protectedResult =
        runCampaign(toyFactory(program, kLoopBranchPc, true), config);
    EXPECT_EQ(protectedResult.count(FaultOutcome::kSdc), 0u);
    EXPECT_EQ(protectedResult.count(FaultOutcome::kDetectedAborted), 0u);
    EXPECT_EQ(protectedResult.count(FaultOutcome::kHang), 0u);
    // Same sampling seed → same sites/cycles in both campaigns.
    ASSERT_EQ(unprotectedResult.records.size(),
              protectedResult.records.size());
    for (std::size_t i = 0; i < unprotectedResult.records.size(); ++i)
        EXPECT_EQ(unprotectedResult.records[i].injection.site,
                  protectedResult.records[i].injection.site);
}

// ------------------------------------------------- zero-fault overhead ----

TEST(ProtectionTest, ZeroFaultsMeansZeroOverhead) {
    const auto program = toyProgram();
    const auto runOnce = [&](bool prot) {
        FaultRun run = toyFactory(program, kLoopBranchPc, prot)();
        PipelineSim sim(*run.program, run.memory, *run.predictor, run.config,
                        run.unit.get());
        const PipelineResult r = sim.run();
        EXPECT_EQ(run.unit->stats().parityRecoveries, 0u);
        EXPECT_EQ(r.stats.parityStallCycles, 0u);
        return r.stats.cycles;
    };
    EXPECT_EQ(runOnce(false), runOnce(true));
}

TEST(ProtectionTest, ParityStorageCountedOnlyWhenProtected) {
    AsbrConfig base;
    AsbrConfig prot = base;
    prot.parityProtected = true;
    const AsbrUnit unprotectedUnit(base);
    const AsbrUnit protectedUnit(prot);
    EXPECT_EQ(protectedUnit.storageBits(),
              unprotectedUnit.storageBits() +
                  BranchDirectionTable::parityStorageBits() +
                  unprotectedUnit.bit().parityStorageBits());
}

// ---------------------------------------------------------- fault report ----

TEST(FaultReportTest, SerializeValidateRoundTrip) {
    const auto program = toyProgram();
    CampaignConfig config;
    config.seed = 7;
    config.injections = 8;
    const CampaignResult result =
        runCampaign(toyFactory(program, kLoopBranchPc, false), config);

    FaultReportMeta meta;
    meta.benchmark = "adpcm-enc";
    meta.predictor = "bimodal";
    meta.seed = 2001;
    meta.samples = 100;
    meta.bitEntries = 4;
    meta.updateStage = "mem_end";

    const JsonValue doc = faultReportJson(meta, config, result);
    EXPECT_TRUE(validateFaultReportJson(doc).ok());

    // Text round trip (what the CLI writes and CI re-validates).
    const JsonParseResult parsed = parseJson(doc.dump(2));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validateFaultReportJson(*parsed.value).ok());
}

TEST(FaultReportTest, ValidatorRejectsCorruptDocuments) {
    const auto program = toyProgram();
    CampaignConfig config;
    config.injections = 4;
    const CampaignResult result =
        runCampaign(toyFactory(program, kLoopBranchPc, false), config);
    FaultReportMeta meta;
    meta.benchmark = "adpcm-enc";
    meta.predictor = "bimodal";
    meta.updateStage = "mem_end";

    JsonValue good = faultReportJson(meta, config, result);
    ASSERT_TRUE(validateFaultReportJson(good).ok());

    JsonValue wrongSchema = good;
    wrongSchema.set("schema", JsonValue{"asbr.sim_report"});
    EXPECT_FALSE(validateFaultReportJson(wrongSchema).ok());

    // Outcome histogram no longer accounts for every injection.
    JsonValue badSum = good;
    JsonObject outcomes = badSum.find("outcomes")->asObject();
    outcomes[0].second =
        JsonValue{outcomes[0].second.asUint() + 1};
    badSum.set("outcomes", JsonValue{std::move(outcomes)});
    EXPECT_FALSE(validateFaultReportJson(badSum).ok());

    JsonValue noMeta = good;
    JsonObject stripped;
    for (const auto& [key, value] : good.asObject())
        if (key != "meta") stripped.emplace_back(key, value);
    EXPECT_FALSE(validateFaultReportJson(JsonValue{std::move(stripped)}).ok());

    EXPECT_FALSE(validateFaultReportJson(JsonValue{"not an object"}).ok());
}

}  // namespace
}  // namespace asbr
