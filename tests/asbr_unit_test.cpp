// Tests for the ASBR core: BDT, BIT, static extraction and the AsbrUnit
// folding semantics inside the pipeline.
#include <gtest/gtest.h>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/static_predictors.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "report/report.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "workloads/adpcm.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

// ------------------------------------------------------------------ BDT ----

TEST(BdtTest, ResetStateIsValidZero) {
    BranchDirectionTable bdt;
    for (std::uint8_t r = 0; r < kNumRegs; ++r) {
        EXPECT_TRUE(bdt.isValid(r));
        EXPECT_TRUE(bdt.direction(r, Cond::kEqz));
        EXPECT_FALSE(bdt.direction(r, Cond::kNez));
        EXPECT_TRUE(bdt.direction(r, Cond::kLez));
        EXPECT_TRUE(bdt.direction(r, Cond::kGez));
    }
}

TEST(BdtTest, PendingProducerInvalidatesUntilUpdate) {
    BranchDirectionTable bdt;
    bdt.producerDecoded(5);
    EXPECT_FALSE(bdt.isValid(5));
    EXPECT_TRUE(bdt.isValid(6));
    bdt.update(5, -3);
    EXPECT_TRUE(bdt.isValid(5));
    EXPECT_TRUE(bdt.direction(5, Cond::kLtz));
    EXPECT_TRUE(bdt.direction(5, Cond::kNez));
    EXPECT_FALSE(bdt.direction(5, Cond::kGez));
}

TEST(BdtTest, NestedProducersRequireAllUpdates) {
    BranchDirectionTable bdt;
    bdt.producerDecoded(7);
    bdt.producerDecoded(7);
    EXPECT_EQ(bdt.pendingCount(7), 2u);
    bdt.update(7, 1);
    EXPECT_FALSE(bdt.isValid(7));
    bdt.update(7, 2);
    EXPECT_TRUE(bdt.isValid(7));
    EXPECT_TRUE(bdt.direction(7, Cond::kGtz));
}

TEST(BdtTest, UpdateWithoutPendingProducerThrows) {
    BranchDirectionTable bdt;
    EXPECT_THROW(bdt.update(3, 1), EnsureError);
}

TEST(BdtTest, DirectionBitsMatchEvalCondForAllValues) {
    BranchDirectionTable bdt;
    for (std::int32_t v : {-2147483647, -100, -1, 0, 1, 100, 2147483647}) {
        bdt.producerDecoded(9);
        bdt.update(9, v);
        for (int c = 0; c < kNumConds; ++c) {
            const auto cond = static_cast<Cond>(c);
            EXPECT_EQ(bdt.direction(9, cond), evalCond(cond, v))
                << condName(cond) << " of " << v;
        }
    }
}

// ------------------------------------------------------------------ BIT ----

TEST(BitTest, LookupActiveBankOnly) {
    BranchIdentificationTable bit(4, 2);
    bit.loadBank(0, {{0x1000, 5, Cond::kNez, 0x2000, {}, {}}});
    bit.loadBank(1, {{0x3000, 6, Cond::kEqz, 0x4000, {}, {}}});
    EXPECT_NE(bit.lookup(0x1000), nullptr);
    EXPECT_EQ(bit.lookup(0x3000), nullptr);
    bit.selectBank(1);
    EXPECT_EQ(bit.lookup(0x1000), nullptr);
    EXPECT_NE(bit.lookup(0x3000), nullptr);
}

// The BIT rejects most PCs with a 64-bit filter of (pc / 4) mod 64; a PC
// fault flip must move the entry's filter bit with it.  Bit 2 moves the PC
// to another filter bit; bit 8 keeps it on the same one (0x100 / 4 is a
// multiple of 64), so only the full compare tells the PCs apart.
TEST(BitTest, PcFlipMatchesTheNewPcOnly) {
    for (const unsigned flipped : {2u, 8u, 31u}) {
        BranchIdentificationTable bit(4, 1);
        bit.loadBank(0, {{0x1000, 5, Cond::kNez, 0x2000, {}, {}},
                         {0x1010, 6, Cond::kEqz, 0x2000, {}, {}}});
        bit.flipEntryBit(0, 0, BitField::kPc, flipped);
        const std::uint32_t moved = 0x1000u ^ (1u << flipped);
        ASSERT_NE(bit.lookup(moved), nullptr) << "bit " << flipped;
        EXPECT_EQ(bit.lookup(moved)->pc, moved);
        EXPECT_EQ(bit.lookup(0x1000), nullptr) << "bit " << flipped;
        EXPECT_NE(bit.lookup(0x1010), nullptr) << "bit " << flipped;
        // Protected lookup: the moved entry is found, fails parity and is
        // scrubbed; the old PC is simply absent.
        bool recovered = false;
        EXPECT_EQ(bit.lookupProtected(0x1000, recovered), nullptr);
        EXPECT_FALSE(recovered);
        EXPECT_EQ(bit.lookupProtected(moved, recovered), nullptr);
        EXPECT_TRUE(recovered) << "bit " << flipped;
    }
}

TEST(BitTest, BankSwitchMatchesOnlyTheNewBanksPcs) {
    BranchIdentificationTable bit(4, 3);
    const std::vector<std::vector<std::uint32_t>> banks = {
        {0x1000, 0x1004, 0x1100},  // 0x1100 shares 0x1000's filter bit
        {0x2008, 0x200C},
        {}};
    for (std::size_t b = 0; b < banks.size(); ++b) {
        std::vector<BranchInfo> entries;
        for (const std::uint32_t pc : banks[b])
            entries.push_back({pc, 5, Cond::kNez, 0x3000, {}, {}});
        bit.loadBank(b, entries);
    }
    for (const std::size_t active : {1u, 0u, 2u, 1u}) {
        bit.selectBank(active);
        for (std::size_t b = 0; b < banks.size(); ++b)
            for (const std::uint32_t pc : banks[b])
                EXPECT_EQ(bit.lookup(pc) != nullptr, b == active)
                    << "pc " << pc << " with bank " << active << " active";
    }
}

TEST(BitTest, CapacityEnforced) {
    BranchIdentificationTable bit(2);
    std::vector<BranchInfo> three(3);
    three[0].pc = 1 * 4;
    three[1].pc = 2 * 4;
    three[2].pc = 3 * 4;
    EXPECT_THROW(bit.loadBank(0, three), EnsureError);
}

TEST(BitTest, DuplicatePcRejected) {
    BranchIdentificationTable bit(4);
    EXPECT_THROW(bit.loadBank(0, {{0x1000, 5, Cond::kNez, 0, {}, {}},
                                  {0x1000, 6, Cond::kEqz, 0, {}, {}}}),
                 EnsureError);
}

TEST(BitTest, StorageBitsScaleWithCapacityAndBanks) {
    const BranchIdentificationTable small(8, 1);
    const BranchIdentificationTable big(16, 1);
    const BranchIdentificationTable banked(16, 4);
    EXPECT_LT(small.storageBits(), big.storageBits());
    EXPECT_EQ(banked.storageBits(), 4 * big.storageBits());
}

// -------------------------------------------------------------- extract ----

TEST(ExtractTest, FieldsOfASimpleBranch) {
    const Program p = assemble(R"(
main:   addiu s0, s0, -1
        bnez  s0, target
        addiu t1, t1, 1     # fall-through instruction
        nop
target: addiu t2, t2, 2     # target instruction
        nop
    )");
    const std::uint32_t branchPc = kTextBase + 4;
    ASSERT_TRUE(isExtractableBranch(p, branchPc));
    const BranchInfo info = extractBranchInfo(p, branchPc);
    EXPECT_EQ(info.pc, branchPc);
    EXPECT_EQ(info.conditionReg, reg::s0);
    EXPECT_EQ(info.cond, Cond::kNez);
    EXPECT_EQ(info.bta, p.symbol("target"));
    EXPECT_EQ(info.bti, (Instruction{Op::kAddiu, 10, 10, 0, 2}));
    EXPECT_EQ(info.bfi, (Instruction{Op::kAddiu, 9, 9, 0, 1}));
}

TEST(ExtractTest, NonBranchAndOutOfTextRejected) {
    const Program p = assemble("main: nop\n bnez t0, main\n");
    EXPECT_FALSE(isExtractableBranch(p, kTextBase));          // nop
    EXPECT_FALSE(isExtractableBranch(p, kTextBase + 4));      // no fall-through
    EXPECT_FALSE(isExtractableBranch(p, kTextBase + 100));    // outside text
    EXPECT_THROW((void)extractBranchInfo(p, kTextBase), EnsureError);
}

TEST(ExtractTest, DuplicatePcInSpanRejected) {
    const Program p = assemble(R"(
main:   addiu s0, s0, -1
        bnez  s0, main
        nop
    )");
    const std::uint32_t branchPc = kTextBase + 4;
    const std::vector<std::uint32_t> dup{branchPc, branchPc};
    EXPECT_THROW((void)extractBranchInfos(p, dup), EnsureError);
    // A duplicate-free span still extracts.
    const std::vector<std::uint32_t> ok{branchPc};
    EXPECT_EQ(extractBranchInfos(p, ok).size(), 1u);
}

TEST(ExtractTest, AllConditionalBranchesEnumerates) {
    const Program p = assemble(R"(
main:   beqz t0, l
        nop
l:      bnez t1, main
        nop
    )");
    const auto pcs = allConditionalBranches(p);
    EXPECT_EQ(pcs, (std::vector<std::uint32_t>{kTextBase, kTextBase + 8}));
}

// ------------------------------------------------------- AsbrUnit + pipe ----

struct RunOutcome {
    PipelineResult base;
    PipelineResult withAsbr;
    AsbrStats asbr;
};

PipelineConfig perfectCaches() {
    PipelineConfig cfg;
    cfg.icache.missPenalty = 0;
    cfg.dcache.missPenalty = 0;
    cfg.mulLatency = 1;
    cfg.divLatency = 1;
    cfg.redirectBubbles = 0;  // pure structural 2-cycle mispredict penalty
    return cfg;
}

/// Run `src` twice — baseline vs ASBR folding `branchLabels` — with the given
/// update stage, and verify functional equivalence along the way.
RunOutcome runWithAsbr(const std::string& src,
                       const std::vector<std::uint32_t>& branchPcs,
                       ValueStage stage,
                       const PipelineConfig& cfg = perfectCaches()) {
    const Program p = assemble(src);

    Memory m1;
    m1.loadProgram(p);
    NotTakenPredictor bp1;
    PipelineSim base(p, m1, bp1, cfg);

    Memory m2;
    m2.loadProgram(p);
    NotTakenPredictor bp2;
    AsbrConfig acfg;
    acfg.updateStage = stage;
    AsbrUnit unit(acfg);
    unit.loadBank(0, extractBranchInfos(p, branchPcs));
    PipelineSim withAsbr(p, m2, bp2, cfg, &unit);

    RunOutcome out{base.run(), withAsbr.run(), {}};
    out.asbr = unit.stats();
    // Folding must never change architectural results.
    EXPECT_EQ(out.base.output, out.withAsbr.output);
    EXPECT_EQ(out.base.exitCode, out.withAsbr.exitCode);
    for (int r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(out.base.finalState.regs[r], out.withAsbr.finalState.regs[r])
            << "reg " << r;
    EXPECT_EQ(out.base.stats.committed,
              out.withAsbr.stats.committed + out.withAsbr.stats.foldedBranches);
    return out;
}

constexpr const char* kExit = R"(
        li   v0, 1
        li   a0, 0
        sys
)";

/// Countdown loop with `fillers` independent instructions between the
/// producer of the branch condition and the branch.
std::string countdownLoop(int fillers, int iterations = 100) {
    std::string src = "main:   li   s0, " + std::to_string(iterations) + "\n";
    src += "loop:   addiu s0, s0, -1\n";
    for (int i = 0; i < fillers; ++i) src += "        addiu t1, t1, 1\n";
    src += "        bnez s0, loop\n";
    src += kExit;
    return src;
}

std::uint32_t loopBranchPc(int fillers) {
    // main(1 instr li) + loop body: producer + fillers, branch next.
    return kTextBase + (1 + 1 + static_cast<std::uint32_t>(fillers)) * 4;
}

TEST(AsbrPipelineTest, Distance1NeverFolds) {
    for (ValueStage stage :
         {ValueStage::kExEnd, ValueStage::kMemEnd, ValueStage::kCommit}) {
        const RunOutcome o =
            runWithAsbr(countdownLoop(0), {loopBranchPc(0)}, stage);
        EXPECT_EQ(o.asbr.folds, 0u);
        EXPECT_GE(o.asbr.blockedInvalid, 99u);
    }
}

TEST(AsbrPipelineTest, Distance2FoldsOnlyAtExEnd) {
    const std::string src = countdownLoop(1);
    const std::vector<std::uint32_t> pcs = {loopBranchPc(1)};
    EXPECT_GE(runWithAsbr(src, pcs, ValueStage::kExEnd).asbr.folds, 99u);
    EXPECT_EQ(runWithAsbr(src, pcs, ValueStage::kMemEnd).asbr.folds, 0u);
    EXPECT_EQ(runWithAsbr(src, pcs, ValueStage::kCommit).asbr.folds, 0u);
}

TEST(AsbrPipelineTest, Distance3FoldsAtMemEnd) {
    const std::string src = countdownLoop(2);
    const std::vector<std::uint32_t> pcs = {loopBranchPc(2)};
    EXPECT_GE(runWithAsbr(src, pcs, ValueStage::kExEnd).asbr.folds, 99u);
    EXPECT_GE(runWithAsbr(src, pcs, ValueStage::kMemEnd).asbr.folds, 99u);
    EXPECT_EQ(runWithAsbr(src, pcs, ValueStage::kCommit).asbr.folds, 0u);
}

TEST(AsbrPipelineTest, Distance4FoldsEverywhere) {
    const std::string src = countdownLoop(3);
    const std::vector<std::uint32_t> pcs = {loopBranchPc(3)};
    for (ValueStage stage :
         {ValueStage::kExEnd, ValueStage::kMemEnd, ValueStage::kCommit}) {
        EXPECT_GE(runWithAsbr(src, pcs, stage).asbr.folds, 99u);
    }
}

TEST(AsbrPipelineTest, FoldingImprovesCyclesOnHardBranch) {
    // The loop branch is taken 99/100 times; against a not-taken predictor
    // each taken execution costs 2 flush cycles.  Folding removes both the
    // flush and the branch's pipeline occupancy.
    const RunOutcome o =
        runWithAsbr(countdownLoop(3), {loopBranchPc(3)}, ValueStage::kMemEnd);
    EXPECT_LT(o.withAsbr.stats.cycles, o.base.stats.cycles);
    EXPECT_GE(o.base.stats.cycles - o.withAsbr.stats.cycles, 2u * 90u);
    EXPECT_EQ(o.withAsbr.stats.mispredicts, 0u);
    EXPECT_GE(o.asbr.foldsTaken, 99u);
}

TEST(AsbrPipelineTest, FallThroughFoldUsesBfi) {
    // Branch never taken: every fold injects the BFI.
    const std::string src = std::string(R"(
main:   li   s0, 0
        li   t9, 50
loop:   addu t0, s0, zero   # producer of t0 (always 0)
        addiu t1, t1, 1
        addiu t2, t2, 1
        bnez t0, never      # never taken -> BFI fold
        addiu t3, t3, 1     # BFI
        addiu t9, t9, -1
        bnez t9, loop
)") + kExit + "never: li a0, 9\n li v0, 1\n sys\n";
    const std::uint32_t branchPc = kTextBase + (2 + 3) * 4;
    const RunOutcome o = runWithAsbr(src, {branchPc}, ValueStage::kMemEnd);
    EXPECT_GE(o.asbr.folds, 49u);
    EXPECT_EQ(o.asbr.foldsTaken, 0u);
    EXPECT_EQ(o.withAsbr.finalState.regs[11], 50);  // t3 incremented each iter
}

TEST(AsbrPipelineTest, DataDependentDirectionFoldsCorrectly) {
    // Branch direction alternates with the loop counter's low bit — a
    // pattern the BDT resolves exactly every iteration.
    const std::string src = std::string(R"(
main:   li   s0, 40
loop:   andi t0, s0, 1
        addiu t1, t1, 1
        addiu t2, t2, 1
        beqz t0, even
        addiu s1, s1, 1     # odd path
even:   addiu s0, s0, -1
        addiu t3, t3, 1
        addiu t4, t4, 1
        bnez s0, loop
)") + kExit;
    const std::uint32_t alternating = kTextBase + 4 * 4;  // beqz t0
    const std::uint32_t loopBranch = kTextBase + 9 * 4;   // bnez s0
    const RunOutcome o =
        runWithAsbr(src, {alternating, loopBranch}, ValueStage::kMemEnd);
    EXPECT_GE(o.asbr.folds, 70u);  // both branches fold most iterations
    EXPECT_EQ(o.withAsbr.finalState.regs[17], 20);  // s1: 20 odd iterations
}

TEST(AsbrPipelineTest, FoldedTakenBranchExecutesBtiAtTargetPc) {
    // The BTI is a `j` — a PC-bearing instruction.  Folding must execute it
    // with the target's own PC semantics.
    const std::string src = std::string(R"(
main:   li   s0, 10
loop:   addiu s0, s0, -1
        addiu t1, t1, 1
        addiu t2, t2, 1
        beqz s0, out
        j    loop
out:    addiu t5, t5, 7
)") + kExit;
    const std::uint32_t branchPc = kTextBase + 4 * 4;
    const RunOutcome o = runWithAsbr(src, {branchPc}, ValueStage::kMemEnd);
    EXPECT_EQ(o.withAsbr.finalState.regs[13], 7);  // t5 set once
    EXPECT_GE(o.asbr.folds, 9u);
}

TEST(AsbrPipelineTest, BankSwitchingCoversTwoLoops) {
    // The BIT bank-select control register lives at 0xFFFF0000; software
    // switches banks with an ordinary store just before entering each loop.
    const std::string real = std::string(R"(
main:   lui  t8, 0xFFFF
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
)") + kExit;
    const Program p = assemble(real);
    const std::uint32_t b1 = p.symbol("l1") + 3 * 4;
    const std::uint32_t b2 = p.symbol("l2") + 3 * 4;

    Memory mem;
    mem.loadProgram(p);
    NotTakenPredictor bp;
    AsbrConfig acfg;
    acfg.updateStage = ValueStage::kMemEnd;
    acfg.bitCapacity = 1;  // forces the two branches into separate banks
    acfg.bitBanks = 2;
    AsbrUnit unit(acfg);
    unit.loadBank(0, extractBranchInfos(p, std::vector<std::uint32_t>{b1}));
    unit.loadBank(1, extractBranchInfos(p, std::vector<std::uint32_t>{b2}));
    PipelineSim sim(p, mem, bp, perfectCaches(), &unit);
    const PipelineResult r = sim.run();
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_GE(unit.stats().folds, 2u * 29u - 4u);
    EXPECT_EQ(unit.stats().bankSwitches, 2u);
}

TEST(AsbrPipelineTest, FunctionalSimAgreesWithFoldedPipeline) {
    const std::string src = countdownLoop(3, 500);
    const Program p = assemble(src);
    Memory m1;
    m1.loadProgram(p);
    FunctionalSim fsim(p, m1);
    const FunctionalResult fr = fsim.run();

    Memory m2;
    m2.loadProgram(p);
    NotTakenPredictor bp;
    AsbrUnit unit({ValueStage::kMemEnd, 16, 1});
    unit.loadBank(0, extractBranchInfos(
                         p, std::vector<std::uint32_t>{loopBranchPc(3)}));
    PipelineSim psim(p, m2, bp, perfectCaches(), &unit);
    const PipelineResult pr = psim.run();
    EXPECT_EQ(pr.output, fr.output);
    EXPECT_EQ(pr.stats.committed + pr.stats.foldedBranches, fr.instructions);
}

TEST(AsbrUnitTest, MismatchedBitEntryThrows) {
    // A BIT entry claiming a PC that holds a non-branch must be rejected at
    // fetch (corrupted customization data).
    const Program p = assemble("main: nop\n nop\n li v0, 1\n li a0, 0\n sys\n");
    Memory mem;
    mem.loadProgram(p);
    NotTakenPredictor bp;
    AsbrUnit unit;
    BranchInfo bogus;
    bogus.pc = kTextBase;  // points at the nop
    bogus.conditionReg = 5;
    unit.loadBank(0, {bogus});
    PipelineSim sim(p, mem, bp, perfectCaches(), &unit);
    EXPECT_THROW(sim.run(), EnsureError);
}

TEST(AsbrUnitTest, StorageCostBelowGeneralPurposePredictor) {
    // Paper claim: comparable accuracy at significantly lower cost.  A
    // 16-entry BIT + BDT must be far smaller than the 2048-entry bimodal.
    AsbrUnit unit;
    EXPECT_LT(unit.storageBits() + makeBimodal(512, 512)->storageBits(),
              makeBimodal2048()->storageBits());
}

TEST(AsbrUnitTest, BitCapacityBeyondItsEntriesChangesNoRun) {
    // A BIT lookup matches PCs, so the capacity only bounds what may be
    // loaded: the same entries in a 4-entry and an 8-entry BIT give the same
    // run on a codec, and differ only in storage.  A batch simulates such
    // cells once (SimEngine, "twins").
    const Program program = buildBench(BenchId::kAdpcmDecode);
    const std::vector<std::uint8_t> codes =
        adpcmEncodeRef(generateSpeech(2'000, 2001));
    const auto freshMemory = [&] {
        Memory memory;
        memory.loadProgram(program);
        loadCodeInput(memory, program, codes);
        return memory;
    };
    Memory profiled = freshMemory();
    const ProgramProfile profile =
        profileProgram(program, profiled, PipelineConfig{}.maxCycles);
    SelectionConfig selection;
    selection.bitCapacity = 4;
    selection.threshold = 4;  // commit
    const std::vector<BranchInfo> entries = extractBranchInfos(
        program,
        candidatePcs(selectFoldableBranches(program, profile, {}, selection)));
    ASSERT_FALSE(entries.empty());

    std::vector<std::string> runs;
    std::vector<AsbrStats> stats;
    std::vector<std::uint64_t> storage;
    for (const std::size_t capacity : {std::size_t{4}, std::size_t{8}}) {
        AsbrConfig config;
        config.updateStage = ValueStage::kCommit;
        config.bitCapacity = capacity;
        AsbrUnit unit(config);
        unit.loadBank(0, entries);
        Memory memory = freshMemory();
        const auto predictor = makeBimodal2048();
        PipelineSim sim(program, memory, *predictor, {}, &unit);
        const PipelineResult result = sim.run();
        ASSERT_TRUE(result.exited);
        runs.push_back(
            simReportJson(makeSimReport({}, result.stats, nullptr)).dump(2));
        stats.push_back(unit.stats());
        storage.push_back(unit.storageBits());
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_GT(stats[0].folds, 0u);
    EXPECT_EQ(stats[0].lookups, stats[1].lookups);
    EXPECT_EQ(stats[0].folds, stats[1].folds);
    EXPECT_EQ(stats[0].foldsTaken, stats[1].foldsTaken);
    EXPECT_EQ(stats[0].blockedInvalid, stats[1].blockedInvalid);
    EXPECT_EQ(stats[0].bankSwitches, stats[1].bankSwitches);
    EXPECT_EQ(stats[0].parityRecoveries, stats[1].parityRecoveries);
    EXPECT_EQ(stats[0].quarantinedBlocks, stats[1].quarantinedBlocks);
    EXPECT_EQ(stats[0].staticFolds, stats[1].staticFolds);
    EXPECT_LT(storage[0], storage[1]);
}

}  // namespace
}  // namespace asbr
