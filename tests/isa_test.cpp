// Unit tests for the ep32 ISA definition, encoding and disassembly.
#include <gtest/gtest.h>

#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "isa/isa.hpp"
#include "util/rng.hpp"

namespace asbr {
namespace {

TEST(IsaTest, OpClassification) {
    EXPECT_TRUE(isCondBranch(Op::kBeqz));
    EXPECT_TRUE(isCondBranch(Op::kBgez));
    EXPECT_FALSE(isCondBranch(Op::kJ));
    EXPECT_TRUE(isJump(Op::kJ));
    EXPECT_TRUE(isJump(Op::kJalr));
    EXPECT_FALSE(isJump(Op::kBnez));
    EXPECT_TRUE(isControl(Op::kBnez));
    EXPECT_TRUE(isControl(Op::kJr));
    EXPECT_FALSE(isControl(Op::kAddu));
    EXPECT_TRUE(isLoad(Op::kLb));
    EXPECT_TRUE(isLoad(Op::kLw));
    EXPECT_FALSE(isLoad(Op::kSw));
    EXPECT_TRUE(isStore(Op::kSb));
    EXPECT_TRUE(isStore(Op::kSw));
    EXPECT_FALSE(isStore(Op::kLw));
    EXPECT_TRUE(isMulDiv(Op::kMul));
    EXPECT_TRUE(isMulDiv(Op::kRemu));
    EXPECT_FALSE(isMulDiv(Op::kAddu));
}

TEST(IsaTest, BranchCondMapping) {
    EXPECT_EQ(branchCond(Op::kBeqz), Cond::kEqz);
    EXPECT_EQ(branchCond(Op::kBnez), Cond::kNez);
    EXPECT_EQ(branchCond(Op::kBlez), Cond::kLez);
    EXPECT_EQ(branchCond(Op::kBgtz), Cond::kGtz);
    EXPECT_EQ(branchCond(Op::kBltz), Cond::kLtz);
    EXPECT_EQ(branchCond(Op::kBgez), Cond::kGez);
    for (int c = 0; c < kNumConds; ++c) {
        const auto cond = static_cast<Cond>(c);
        EXPECT_EQ(branchCond(condToBranchOp(cond)), cond);
    }
}

TEST(IsaTest, EvalCond) {
    EXPECT_TRUE(evalCond(Cond::kEqz, 0));
    EXPECT_FALSE(evalCond(Cond::kEqz, 1));
    EXPECT_TRUE(evalCond(Cond::kNez, -5));
    EXPECT_FALSE(evalCond(Cond::kNez, 0));
    EXPECT_TRUE(evalCond(Cond::kLez, 0));
    EXPECT_TRUE(evalCond(Cond::kLez, -1));
    EXPECT_FALSE(evalCond(Cond::kLez, 1));
    EXPECT_TRUE(evalCond(Cond::kGtz, 1));
    EXPECT_FALSE(evalCond(Cond::kGtz, 0));
    EXPECT_TRUE(evalCond(Cond::kLtz, -1));
    EXPECT_FALSE(evalCond(Cond::kLtz, 0));
    EXPECT_TRUE(evalCond(Cond::kGez, 0));
    EXPECT_FALSE(evalCond(Cond::kGez, -1));
}

TEST(IsaTest, NegateCondIsInvolutionAndComplement) {
    for (int c = 0; c < kNumConds; ++c) {
        const auto cond = static_cast<Cond>(c);
        EXPECT_EQ(negateCond(negateCond(cond)), cond);
        for (std::int32_t v : {-7, -1, 0, 1, 42}) {
            EXPECT_NE(evalCond(cond, v), evalCond(negateCond(cond), v))
                << condName(cond) << " value " << v;
        }
    }
}

TEST(IsaTest, DestRegRules) {
    EXPECT_EQ(destReg({Op::kAddu, 5, 1, 2, 0}), 5);
    EXPECT_EQ(destReg({Op::kLw, 7, 29, 0, 4}), 7);
    EXPECT_EQ(destReg({Op::kSw, 0, 29, 7, 4}), std::nullopt);
    EXPECT_EQ(destReg({Op::kBeqz, 0, 4, 0, -2}), std::nullopt);
    EXPECT_EQ(destReg({Op::kJ, 0, 0, 0, 100}), std::nullopt);
    EXPECT_EQ(destReg({Op::kJal, 0, 0, 0, 100}), reg::ra);
    EXPECT_EQ(destReg({Op::kJalr, 12, 9, 0, 0}), 12);
    EXPECT_EQ(destReg({Op::kSys, 0, 0, 0, 0}), std::nullopt);
    EXPECT_EQ(destReg({Op::kNop, 0, 0, 0, 0}), std::nullopt);
}

TEST(IsaTest, SrcRegRules) {
    auto srcsOf = [](Instruction ins) {
        const SrcRegs s = srcRegs(ins);
        std::vector<std::uint8_t> v(s.regs.begin(), s.regs.begin() + s.count);
        return v;
    };
    EXPECT_EQ(srcsOf({Op::kAddu, 5, 1, 2, 0}), (std::vector<std::uint8_t>{1, 2}));
    EXPECT_EQ(srcsOf({Op::kAddiu, 5, 1, 0, 7}), (std::vector<std::uint8_t>{1}));
    EXPECT_EQ(srcsOf({Op::kLw, 7, 29, 0, 4}), (std::vector<std::uint8_t>{29}));
    EXPECT_EQ(srcsOf({Op::kSw, 0, 29, 7, 4}), (std::vector<std::uint8_t>{29, 7}));
    EXPECT_EQ(srcsOf({Op::kBnez, 0, 4, 0, -2}), (std::vector<std::uint8_t>{4}));
    EXPECT_EQ(srcsOf({Op::kJr, 0, 31, 0, 0}), (std::vector<std::uint8_t>{31}));
    EXPECT_EQ(srcsOf({Op::kLui, 8, 0, 0, 5}), std::vector<std::uint8_t>{});
    EXPECT_EQ(srcsOf({Op::kJ, 0, 0, 0, 9}), std::vector<std::uint8_t>{});
    EXPECT_EQ(srcsOf({Op::kSys, 0, 0, 0, 0}),
              (std::vector<std::uint8_t>{reg::v0, reg::a0}));
}

TEST(IsaTest, NameRoundTrip) {
    for (int i = 0; i < kNumOps; ++i) {
        const auto op = static_cast<Op>(i);
        EXPECT_EQ(opFromName(opName(op)), op);
    }
    EXPECT_EQ(opFromName("bogus"), std::nullopt);
}

TEST(IsaTest, RegNameForms) {
    EXPECT_EQ(regFromName("zero"), 0);
    EXPECT_EQ(regFromName("$zero"), 0);
    EXPECT_EQ(regFromName("a0"), reg::a0);
    EXPECT_EQ(regFromName("$4"), 4);
    EXPECT_EQ(regFromName("r4"), 4);
    EXPECT_EQ(regFromName("31"), 31);
    EXPECT_EQ(regFromName("sp"), reg::sp);
    EXPECT_EQ(regFromName("32"), std::nullopt);
    EXPECT_EQ(regFromName("x1"), std::nullopt);
    for (std::uint8_t r = 0; r < kNumRegs; ++r) EXPECT_EQ(regFromName(regName(r)), r);
}

TEST(EncodingTest, RoundTripRepresentatives) {
    const std::vector<Instruction> cases = {
        {Op::kAddu, 5, 1, 2, 0},     {Op::kNor, 31, 30, 29, 0},
        {Op::kMulh, 2, 3, 4, 0},     {Op::kAddiu, 8, 9, 0, -32768},
        {Op::kAddiu, 8, 9, 0, 32767}, {Op::kAndi, 8, 9, 0, 65535},
        {Op::kLui, 1, 0, 0, 0xFFFF}, {Op::kSll, 2, 3, 0, 31},
        {Op::kLw, 7, 29, 0, -4},     {Op::kLbu, 7, 29, 0, 123},
        {Op::kSw, 0, 29, 7, -100},   {Op::kSb, 0, 4, 31, 32767},
        {Op::kBeqz, 0, 4, 0, -1},    {Op::kBgez, 0, 17, 0, 4000},
        {Op::kJ, 0, 0, 0, (1 << 26) - 1},
        {Op::kJal, 0, 0, 0, 1},      {Op::kJr, 0, 31, 0, 0},
        {Op::kJalr, 12, 9, 0, 0},    {Op::kSys, 0, 0, 0, 0},
        {Op::kNop, 0, 0, 0, 0},
    };
    for (const Instruction& ins : cases) {
        EXPECT_EQ(decode(encode(ins)), ins) << disassemble(ins);
    }
}

TEST(EncodingTest, RejectsOutOfRangeFields) {
    EXPECT_THROW((void)encode({Op::kAddiu, 1, 2, 0, 40000}), EnsureError);
    EXPECT_THROW((void)encode({Op::kAddiu, 1, 2, 0, -40000}), EnsureError);
    EXPECT_THROW((void)encode({Op::kAndi, 1, 2, 0, -1}), EnsureError);
    EXPECT_THROW((void)encode({Op::kAndi, 1, 2, 0, 70000}), EnsureError);
    EXPECT_THROW((void)encode({Op::kSll, 1, 2, 0, 32}), EnsureError);
    EXPECT_THROW((void)encode({Op::kJ, 0, 0, 0, 1 << 26}), EnsureError);
    EXPECT_THROW((void)encode({Op::kJ, 0, 0, 0, -1}), EnsureError);
}

TEST(EncodingTest, DecodeRejectsBadOpcodeField) {
    EXPECT_THROW((void)decode(0xFFFF'FFFFu), EnsureError);
}

// Property sweep: random well-formed instructions round-trip through the
// encoder for every opcode class.
TEST(EncodingTest, RandomRoundTripSweep) {
    Xorshift64 rng(12345);
    for (int iter = 0; iter < 5000; ++iter) {
        Instruction ins;
        ins.op = static_cast<Op>(rng.below(kNumOps));
        ins.rd = static_cast<std::uint8_t>(rng.below(kNumRegs));
        ins.rs = static_cast<std::uint8_t>(rng.below(kNumRegs));
        ins.rt = static_cast<std::uint8_t>(rng.below(kNumRegs));
        if (ins.op == Op::kJ || ins.op == Op::kJal) {
            ins.imm = static_cast<std::int32_t>(rng.below(1u << 26));
            ins.rd = ins.rs = ins.rt = 0;
        } else if (ins.op == Op::kSll || ins.op == Op::kSrl || ins.op == Op::kSra) {
            ins.imm = static_cast<std::int32_t>(rng.below(32));
            ins.rt = 0;
        } else if (ins.op == Op::kAndi || ins.op == Op::kOri ||
                   ins.op == Op::kXori || ins.op == Op::kLui) {
            ins.imm = static_cast<std::int32_t>(rng.below(65536));
            ins.rt = 0;
        } else if (ins.op <= Op::kRemu || ins.op == Op::kJalr || ins.op == Op::kJr) {
            ins.imm = 0;
            if (ins.op == Op::kJalr || ins.op == Op::kJr) ins.rt = 0;
        } else if (ins.op == Op::kSys || ins.op == Op::kNop) {
            ins = {ins.op, 0, 0, 0, 0};
        } else {
            ins.imm = static_cast<std::int32_t>(rng.range(-32768, 32767));
            ins.rt = 0;
        }
        if (isStore(ins.op)) {
            ins.rd = 0;  // stores carry data in rt
        } else if (ins.op > Op::kRemu) {
            ins.rt = 0;
        }
        EXPECT_EQ(decode(encode(ins)), ins) << disassemble(ins);
    }
}

TEST(DisasmTest, Formats) {
    EXPECT_EQ(disassemble({Op::kAddu, 8, 9, 10, 0}), "addu t0, t1, t2");
    EXPECT_EQ(disassemble({Op::kAddiu, 8, 9, 0, -4}), "addiu t0, t1, -4");
    EXPECT_EQ(disassemble({Op::kLw, 4, 29, 0, 8}), "lw a0, 8(sp)");
    EXPECT_EQ(disassemble({Op::kSw, 0, 29, 4, 8}), "sw a0, 8(sp)");
    EXPECT_EQ(disassemble({Op::kBnez, 0, 4, 0, -3}), "bnez a0, -3");
    EXPECT_EQ(disassemble({Op::kJr, 0, 31, 0, 0}), "jr ra");
    EXPECT_EQ(disassemble({Op::kNop, 0, 0, 0, 0}), "nop");
    EXPECT_EQ(disassembleAt({Op::kBnez, 0, 4, 0, 2}, 0x1000),
              "00001000: bnez a0, 0x100c");
}

}  // namespace
}  // namespace asbr
