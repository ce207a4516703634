// Unit tests for instruction semantics (exec) and the functional ISS.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "sim/functional.hpp"

namespace asbr {
namespace {

/// Assemble, load and run a program functionally; returns the result and
/// exposes final state via the out-parameters.
FunctionalResult runAsm(const std::string& src, ArchState* finalState = nullptr,
                        Memory* extMem = nullptr) {
    const Program p = assemble(src);
    Memory localMem;
    Memory& mem = extMem ? *extMem : localMem;
    mem.loadProgram(p);
    FunctionalSim sim(p, mem);
    const FunctionalResult r = sim.run(10'000'000);
    if (finalState) *finalState = sim.state();
    return r;
}

/// Standard exit sequence with exit code taken from a0.
constexpr const char* kExit = R"(
        li   v0, 1
        sys
)";

TEST(ExecTest, ArithmeticBasics) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, 7
        li   t1, -3
        addu t2, t0, t1      # 4
        subu t3, t0, t1      # 10
        and  t4, t0, t1      # 7 & -3 = 5
        or   t5, t0, t1      # -3
        xor  t6, t0, t1      # 7 ^ -3
        nor  t7, t0, t1      # ~(7 | -3)
        move a0, t2
)") + kExit, &st);
    EXPECT_EQ(st.reg(10), 4);
    EXPECT_EQ(st.reg(11), 10);
    EXPECT_EQ(st.reg(12), 7 & -3);
    EXPECT_EQ(st.reg(13), 7 | -3);
    EXPECT_EQ(st.reg(14), 7 ^ -3);
    EXPECT_EQ(st.reg(15), ~(7 | -3));
}

TEST(ExecTest, SetLessThanSignedVsUnsigned) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, -1
        li   t1, 1
        slt  t2, t0, t1      # -1 < 1 -> 1
        sltu t3, t0, t1      # 0xFFFFFFFF < 1 -> 0
        slti t4, t0, 0       # 1
        sltiu t5, t1, -1     # 1 < 0xFFFFFFFF -> 1
)") + kExit, &st);
    EXPECT_EQ(st.reg(10), 1);
    EXPECT_EQ(st.reg(11), 0);
    EXPECT_EQ(st.reg(12), 1);
    EXPECT_EQ(st.reg(13), 1);
}

TEST(ExecTest, ShiftsMaskAmounts) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, -8
        sra  t1, t0, 1        # -4
        srl  t2, t0, 1        # 0x7FFFFFFC
        sll  t3, t0, 2        # -32
        li   t4, 33
        srav t5, t0, t4       # shift by 33&31 = 1 -> -4
)") + kExit, &st);
    EXPECT_EQ(st.reg(9), -4);
    EXPECT_EQ(st.reg(10), 0x7FFFFFFC);
    EXPECT_EQ(st.reg(11), -32);
    EXPECT_EQ(st.reg(13), -4);
}

TEST(ExecTest, MultiplyDivide) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, -7
        li   t1, 3
        mul  t2, t0, t1       # -21
        rem  t3, t0, t1       # -1
        div  t4, t0, t1       # -2
        li   t5, 100000
        mul  t6, t5, t5       # low 32 of 10^10
        mulh t7, t5, t5       # high 32 of 10^10
        li   t8, 0
        div  s0, t0, t8       # /0 -> 0 (defined)
        rem  s1, t0, t8       # %0 -> t0 (defined)
)") + kExit, &st);
    EXPECT_EQ(st.reg(10), -21);
    EXPECT_EQ(st.reg(11), -1);
    EXPECT_EQ(st.reg(12), -2);
    const std::int64_t big = 100000LL * 100000LL;
    EXPECT_EQ(st.reg(14), static_cast<std::int32_t>(big));
    EXPECT_EQ(st.reg(15), static_cast<std::int32_t>(big >> 32));
    EXPECT_EQ(st.reg(16), 0);
    EXPECT_EQ(st.reg(17), -7);
}

TEST(ExecTest, LoadStoreAllWidths) {
    ArchState st;
    runAsm(std::string(R"(
        .data
buf:    .space 16
        .text
main:   la   t0, buf
        li   t1, -2
        sb   t1, 0(t0)
        sh   t1, 2(t0)
        sw   t1, 4(t0)
        lb   t2, 0(t0)        # -2
        lbu  t3, 0(t0)        # 254
        lh   t4, 2(t0)        # -2
        lhu  t5, 2(t0)        # 65534
        lw   t6, 4(t0)        # -2
)") + kExit, &st);
    EXPECT_EQ(st.reg(10), -2);
    EXPECT_EQ(st.reg(11), 254);
    EXPECT_EQ(st.reg(12), -2);
    EXPECT_EQ(st.reg(13), 65534);
    EXPECT_EQ(st.reg(14), -2);
}

TEST(ExecTest, R0IsAlwaysZero) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, 5
        addu zero, t0, t0
        addu t1, zero, zero
)") + kExit, &st);
    EXPECT_EQ(st.reg(0), 0);
    EXPECT_EQ(st.reg(9), 0);
}

TEST(ExecTest, BranchesAllConditions) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   t0, 0
        li   s0, 0
        beqz t0, l1
        li   s0, 99
l1:     li   t1, 5
        bgtz t1, l2
        li   s0, 99
l2:     li   t2, -5
        bltz t2, l3
        li   s0, 99
l3:     blez t2, l4
        li   s0, 99
l4:     bgez t1, l5
        li   s0, 99
l5:     bnez t1, l6
        li   s0, 99
l6:     bnez t0, bad          # not taken: t0 == 0
        bgtz t0, bad          # not taken
        bltz t1, bad          # not taken
        move a0, s0
)") + kExit + "bad: li a0, 1\n li v0, 1\n sys\n", &st);
    EXPECT_EQ(st.reg(16), 0);
}

TEST(ExecTest, CallAndReturn) {
    ArchState st;
    runAsm(std::string(R"(
main:   li   a0, 20
        jal  double_it
        move s0, v0
)") + kExit + R"(
double_it:
        addu v0, a0, a0
        jr   ra
)", &st);
    EXPECT_EQ(st.reg(16), 40);
}

TEST(ExecTest, JalrIndirectCall) {
    ArchState st;
    runAsm(std::string(R"(
main:   la   t0, callee
        li   a0, 5
        jalr t0
        move s0, v0
)") + kExit + R"(
callee: addu v0, a0, a0
        jr   ra
)", &st);
    EXPECT_EQ(st.reg(16), 10);
}

TEST(ExecTest, SyscallOutput) {
    const FunctionalResult r = runAsm(R"(
main:   li   a0, 72          # 'H'
        li   v0, 2
        sys
        li   a0, -42
        li   v0, 3
        sys
        li   a0, 7
        li   v0, 1
        sys
)");
    EXPECT_EQ(r.output, "H-42");
    EXPECT_EQ(r.exitCode, 7);
    EXPECT_TRUE(r.exited);
}

TEST(ExecTest, ExitCodeZeroDefault) {
    const FunctionalResult r = runAsm("main: li a0, 0\n li v0, 1\n sys\n");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(FunctionalSimTest, InstructionCountExact) {
    const FunctionalResult r = runAsm(R"(
main:   li   t0, 10          # 1
loop:   addiu t0, t0, -1     # 10x
        bnez t0, loop        # 10x
        li   v0, 1           # 1
        li   a0, 0           # 1  (note: a0 set after v0; order irrelevant)
        sys                  # 1
    )");
    EXPECT_EQ(r.instructions, 1u + 10 + 10 + 3);
}

TEST(FunctionalSimTest, RunawayProgramHitsLimit) {
    const Program p = assemble("main: j main\n");
    Memory mem;
    mem.loadProgram(p);
    FunctionalSim sim(p, mem);
    EXPECT_THROW(sim.run(1000), EnsureError);
}

TEST(FunctionalSimTest, TraceHookSeesEveryCommit) {
    const Program p = assemble("main: li t0, 3\nloop: addiu t0, t0, -1\n bnez t0, loop\n li v0, 1\n li a0, 0\n sys\n");
    Memory mem;
    mem.loadProgram(p);
    FunctionalSim sim(p, mem);
    std::uint64_t count = 0, branches = 0;
    sim.setTraceHook([&](const Instruction&, const StepResult& sr) {
        ++count;
        if (sr.isBranch) ++branches;
    });
    const FunctionalResult r = sim.run();
    EXPECT_EQ(count, r.instructions);
    EXPECT_EQ(branches, 3u);
}

TEST(FunctionalSimTest, MemoryVisibleAfterRun) {
    Memory mem;
    runAsm(std::string(R"(
        .data
out:    .space 4
        .text
main:   li  t0, 1234
        sw  t0, out
)") + kExit, nullptr, &mem);
    const Program p = assemble(".data\nout: .space 4\n");
    EXPECT_EQ(mem.read32(p.symbol("out")), 1234u);
}

TEST(FunctionalSimTest, StackPointerInitialized) {
    ArchState st;
    runAsm(std::string(R"(
main:   addiu sp, sp, -16
        li   t0, 77
        sw   t0, 12(sp)
        lw   s0, 12(sp)
        addiu sp, sp, 16
)") + kExit, &st);
    EXPECT_EQ(st.reg(16), 77);
    EXPECT_EQ(st.reg(reg::sp), static_cast<std::int32_t>(kStackTop));
}

// ------------------------------------------------ walk() edge cases --
//
// walk() steps by pointer through the decoded text while control falls
// through; these pin the cases where it must not: the text's last word, a
// control transfer onto it, and successors outside the text or misaligned.

constexpr const char* kOutsideText =
    "decode cache lookup outside the bound program's text";

/// Runs `program` on FunctionalSim, expecting it to throw EnsureError with
/// `message` after exactly `executed` instructions.
void expectRunThrows(const Program& program, const std::string& message,
                     std::uint64_t executed) {
    Memory mem;
    mem.loadProgram(program);
    FunctionalSim sim(program, mem);
    std::uint64_t seen = 0;
    sim.setTraceHook([&](const Instruction&, const StepResult&) { ++seen; });
    try {
        (void)sim.run(1000);
        ADD_FAILURE() << "no EnsureError";
    } catch (const EnsureError& e) {
        EXPECT_EQ(e.message(), message);
    }
    EXPECT_EQ(seen, executed);
}

TEST(WalkTest, FallingOffTheLastWordThrows) {
    const Program p = assemble(R"(
main:   li    t0, 1
        addiu t0, t0, 1
    )");
    expectRunThrows(p, kOutsideText, p.code.size());

    Memory mem;
    mem.loadProgram(p);
    FunctionalSim sim(p, mem);
    EXPECT_THROW((void)sim.run(1000, [](const DecodedOp&, const ArchState&) {}),
                 EnsureError);
    EXPECT_EQ(sim.state().pc, p.textEnd());
    EXPECT_EQ(sim.state().reg(8), 2);  // t0: both words executed

    Memory profiled;
    profiled.loadProgram(p);
    try {
        (void)profileProgram(p, profiled);
        ADD_FAILURE() << "no EnsureError";
    } catch (const EnsureError& e) {
        EXPECT_EQ(e.message(), kOutsideText);
    }
}

TEST(WalkTest, NothingToWalkTouchesNoText) {
    const Program p = assemble(std::string("main:   li a0, 3\n") + kExit);
    Memory mem;
    mem.loadProgram(p);
    DecodeCache decode(p);
    IoContext io;
    std::uint64_t seen = 0;
    const auto count = [&](const DecodedOp&, const ArchState&) { ++seen; };
    for (const std::uint32_t pc : {0u, p.textEnd(), p.textBase + 2}) {
        ArchState state = resetState(p);
        state.pc = pc;
        EXPECT_EQ(walk(decode, state, mem, io, 0, count), 0u);
        EXPECT_EQ(state.pc, pc);
        EXPECT_THROW((void)walk(decode, state, mem, io, 1, count), EnsureError);
    }
    EXPECT_EQ(seen, 0u);

    ArchState state = resetState(p);
    EXPECT_EQ(walk(decode, state, mem, io, 100, count), p.code.size());
    EXPECT_TRUE(io.exited);
    EXPECT_EQ(io.exitCode, 3);
    EXPECT_EQ(state.pc, p.textEnd());
    EXPECT_EQ(walk(decode, state, mem, io, 100, count), 0u);
    state.pc = 0;
    EXPECT_EQ(walk(decode, state, mem, io, 100, count), 0u);
    EXPECT_EQ(seen, p.code.size());
}

TEST(WalkTest, ControlTransferOntoTheLastWord) {
    // A taken branch and a j each land on the exit syscall, the last word.
    for (const char* transfer : {"beqz zero, last", "j    last"}) {
        const Program p = assemble(std::string(R"(
main:   li   v0, 1
        li   a0, 5
        )") + transfer + R"(
        li   a0, 9
last:   sys
)");
        Memory mem;
        mem.loadProgram(p);
        FunctionalSim sim(p, mem);
        const FunctionalResult r = sim.run(1000);
        EXPECT_TRUE(r.exited) << transfer;
        EXPECT_EQ(r.exitCode, 5) << transfer;
        EXPECT_EQ(r.instructions, p.code.size() - 1) << transfer;
    }
    // A taken branch onto a last word that is not an exit: that word runs,
    // then the fall-through leaves the text.
    const Program p = assemble(R"(
main:   li    t0, 0
        beqz  t0, last
        nop
last:   addiu t0, t0, 1
    )");
    expectRunThrows(p, kOutsideText, p.code.size() - 1);
}

TEST(WalkTest, JumpRegisterOutsideTheTextThrows) {
    // Unaligned: stepDecoded itself refuses the jump.
    const Program unaligned = assemble(R"(
main:   li    t0, 0x1002
        nop
        jr    t0
    )");
    expectRunThrows(unaligned, "jr/jalr to unaligned address",
                    unaligned.code.size() - 1);
    // Aligned but past the text: the lookup of the next instruction throws.
    const Program past = assemble(R"(
main:   li    t0, 0x8000
        jr    t0
        nop
    )");
    expectRunThrows(past, kOutsideText, past.code.size() - 1);
}

}  // namespace
}  // namespace asbr
