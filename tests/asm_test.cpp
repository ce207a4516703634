// Unit tests for the two-pass assembler.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "isa/disasm.hpp"

namespace asbr {
namespace {

TEST(AsmTest, EmptySource) {
    const Program p = assemble("");
    EXPECT_TRUE(p.code.empty());
    EXPECT_TRUE(p.data.empty());
    EXPECT_EQ(p.entry, kTextBase);
}

TEST(AsmTest, BasicInstructions) {
    const Program p = assemble(R"(
        .text
main:   addiu t0, zero, 5
        addu  t1, t0, t0
        sw    t1, 0(sp)
        lw    t2, 0(sp)
        nop
        sys
    )");
    ASSERT_EQ(p.code.size(), 6u);
    EXPECT_EQ(p.code[0], (Instruction{Op::kAddiu, reg::t0, reg::zero, 0, 5}));
    EXPECT_EQ(p.code[1], (Instruction{Op::kAddu, 9, 8, 8, 0}));
    EXPECT_EQ(p.code[2], (Instruction{Op::kSw, 0, reg::sp, 9, 0}));
    EXPECT_EQ(p.code[3], (Instruction{Op::kLw, 10, reg::sp, 0, 0}));
    EXPECT_EQ(p.code[4].op, Op::kNop);
    EXPECT_EQ(p.code[5].op, Op::kSys);
    EXPECT_EQ(p.entry, kTextBase);
    EXPECT_EQ(p.symbol("main"), kTextBase);
}

TEST(AsmTest, CommentsAndBlankLines) {
    const Program p = assemble(R"(
        # full line comment
        nop   # trailing comment
        nop   ; alt comment
    )");
    EXPECT_EQ(p.code.size(), 2u);
}

TEST(AsmTest, BranchToLabelForwardAndBack) {
    const Program p = assemble(R"(
loop:   addiu t0, t0, -1
        bnez  t0, loop
        beqz  t0, done
        nop
done:   jr ra
    )");
    ASSERT_EQ(p.code.size(), 5u);
    // bnez at index 1; target loop at index 0: offset = 0 - 2 = -2.
    EXPECT_EQ(p.code[1].imm, -2);
    // beqz at index 2; target done at index 4: offset = 4 - 3 = 1.
    EXPECT_EQ(p.code[2].imm, 1);
}

TEST(AsmTest, JumpAndCall) {
    const Program p = assemble(R"(
main:   jal func
        sys
func:   jr ra
    )");
    EXPECT_EQ(p.code[0].op, Op::kJal);
    EXPECT_EQ(static_cast<std::uint32_t>(p.code[0].imm) * kInstrBytes,
              p.symbol("func"));
}

TEST(AsmTest, DataDirectivesAndSymbols) {
    const Program p = assemble(R"(
        .data
w:      .word 1, -2, 0x10
h:      .half 258
b:      .byte 1, 2, 3
        .align 2
aligned: .word 7
buf:    .space 16
after:  .word after
    )");
    EXPECT_EQ(p.symbol("w"), kDataBase);
    EXPECT_EQ(p.symbol("h"), kDataBase + 12);
    EXPECT_EQ(p.symbol("b"), kDataBase + 14);
    EXPECT_EQ(p.symbol("aligned"), kDataBase + 20);
    EXPECT_EQ(p.symbol("buf"), kDataBase + 24);
    EXPECT_EQ(p.symbol("after"), kDataBase + 40);
    // Little-endian contents.
    EXPECT_EQ(p.data[0], 1);
    EXPECT_EQ(p.data[4], 0xFE);  // -2
    EXPECT_EQ(p.data[5], 0xFF);
    EXPECT_EQ(p.data[8], 0x10);
    EXPECT_EQ(p.data[12], 2);  // 258 = 0x0102
    EXPECT_EQ(p.data[13], 1);
    EXPECT_EQ(p.data[14], 1);
    EXPECT_EQ(p.data[16], 3);
    // .word after == address of 'after'.
    const std::uint32_t afterAddr = p.symbol("after");
    EXPECT_EQ(p.data[40], static_cast<std::uint8_t>(afterAddr & 0xFF));
}

TEST(AsmTest, PseudoLi) {
    const Program p = assemble(R"(
        li t0, 5
        li t1, -5
        li t2, 40000
        li t3, 0x12340000
        li t4, 0x12345678
        li t5, -100000
    )");
    ASSERT_EQ(p.code.size(), 8u);
    EXPECT_EQ(p.code[0].op, Op::kAddiu);
    EXPECT_EQ(p.code[1].op, Op::kAddiu);
    EXPECT_EQ(p.code[2].op, Op::kOri);   // fits uimm16
    EXPECT_EQ(p.code[3].op, Op::kLui);   // low half zero
    EXPECT_EQ(p.code[4].op, Op::kLui);   // lui+ori
    EXPECT_EQ(p.code[5].op, Op::kOri);
    EXPECT_EQ(p.code[5].imm, 0x5678);
    EXPECT_EQ(p.code[6].op, Op::kLui);   // negative 32-bit
    EXPECT_EQ(p.code[7].op, Op::kOri);
}

TEST(AsmTest, PseudoLaMoveNegNotB) {
    const Program p = assemble(R"(
        .data
var:    .word 42
        .text
main:   la   t0, var
        la   t1, var+4
        move t2, t0
        neg  t3, t2
        not  t4, t2
        b    main
    )");
    ASSERT_EQ(p.code.size(), 8u);
    EXPECT_EQ(p.code[0].op, Op::kLui);
    EXPECT_EQ(p.code[1].op, Op::kOri);
    EXPECT_EQ(p.code[3].imm, static_cast<std::int32_t>((kDataBase + 4) & 0xFFFF));
    EXPECT_EQ(p.code[4], (Instruction{Op::kAddu, 10, 8, 0, 0}));
    EXPECT_EQ(p.code[5], (Instruction{Op::kSubu, 11, 0, 10, 0}));
    EXPECT_EQ(p.code[6], (Instruction{Op::kNor, 12, 10, 0, 0}));
    EXPECT_EQ(p.code[7].op, Op::kJ);
}

TEST(AsmTest, MultipleLabelsOneAddress) {
    const Program p = assemble(R"(
a: b_: c:
        nop
    )");
    EXPECT_EQ(p.symbol("a"), p.symbol("b_"));
    EXPECT_EQ(p.symbol("a"), p.symbol("c"));
}

TEST(AsmTest, EntrySymbolSelection) {
    AsmOptions opts;
    opts.entrySymbol = "start";
    const Program p = assemble(R"(
helper: nop
start:  nop
    )", opts);
    EXPECT_EQ(p.entry, kTextBase + 4);
}

TEST(AsmTest, SourceLineTracking) {
    const Program p = assemble("nop\nnop\n  addiu t0, t0, 1\n");
    EXPECT_EQ(p.sourceLine(kTextBase), 1);
    EXPECT_EQ(p.sourceLine(kTextBase + 8), 3);
}

TEST(AsmTest, Errors) {
    EXPECT_THROW(assemble("bogus t0, t1"), AsmError);
    EXPECT_THROW(assemble("addu t0, t1"), AsmError);           // arity
    EXPECT_THROW(assemble("addu q0, t1, t2"), AsmError);       // bad reg
    EXPECT_THROW(assemble("beqz t0, nowhere"), AsmError);      // undefined label
    EXPECT_THROW(assemble("l: nop\nl: nop"), AsmError);        // duplicate label
    EXPECT_THROW(assemble("lw t0, 4(t1"), AsmError);           // missing ')'
    EXPECT_THROW(assemble("addiu t0, t1, 100000"), AsmError);  // imm range
    EXPECT_THROW(assemble(".word 1"), AsmError);               // data in .text
    EXPECT_THROW(assemble(".frobnicate"), AsmError);           // unknown directive
}

TEST(AsmTest, ErrorsCarryLineNumbers) {
    try {
        (void)assemble("nop\nnop\nbogus\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError& e) {
        EXPECT_EQ(e.line(), 3);
    }
}

// Disassembler text (sans labels) reassembles to the identical instruction.
TEST(AsmTest, DisasmReassembleRoundTrip) {
    const Program p = assemble(R"(
main:   addiu sp, sp, -16
        sw    ra, 12(sp)
        li    a0, 7
        sltiu v0, a0, 10
        srav  t0, a0, v0
        lhu   t1, 2(sp)
        jr    ra
    )");
    for (const Instruction& ins : p.code) {
        const Program q = assemble(disassemble(ins));
        ASSERT_EQ(q.code.size(), 1u);
        EXPECT_EQ(q.code[0], ins) << disassemble(ins);
    }
}

}  // namespace
}  // namespace asbr
