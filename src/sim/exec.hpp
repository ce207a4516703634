// Shared architectural semantics of ep32 instructions.
//
// Both the functional ISS and the cycle-accurate pipeline execute
// instructions through one semantics implementation, stepDecoded(), which
// dispatches directly on a pre-decoded micro-op record (sim/decode_cache.hpp)
// — so they are functionally equivalent by construction and the pipeline
// layers *timing* on top.  Differential tests assert the equivalence anyway.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "isa/isa.hpp"
#include "mem/memory.hpp"
#include "sim/decode_cache.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// Architectural register file + PC.  r0 reads as zero and swallows writes.
struct ArchState {
    std::array<std::int32_t, kNumRegs> regs{};
    std::uint32_t pc = 0;

    [[nodiscard]] std::int32_t reg(std::uint8_t r) const { return regs[r]; }
    /// Write, then re-zero r0: no branch on the per-instruction path.
    void setReg(std::uint8_t r, std::int32_t v) {
        regs[r] = v;
        regs[reg::zero] = 0;
    }
};

/// The architectural state every run of `program` starts from: PC at the
/// entry point, sp at the stack top, gp 32 KiB into the data segment (its
/// global pointer), every other register 0.
[[nodiscard]] inline ArchState resetState(const Program& program) {
    ArchState state;
    state.pc = program.entry;
    state.setReg(reg::sp, static_cast<std::int32_t>(kStackTop));
    state.setReg(reg::gp, static_cast<std::int32_t>(program.dataBase + 0x8000));
    return state;
}

/// Program I/O and termination collected across a run.
struct IoContext {
    std::string output;
    bool exited = false;
    std::int32_t exitCode = 0;
};

/// A completed register write (for pipeline forwarding / BDT updates).
struct RegWrite {
    std::uint8_t reg = 0;
    std::int32_t value = 0;
};

/// Everything the timing model needs to know about one executed instruction.
struct StepResult {
    std::uint32_t pc = 0;        ///< address the instruction executed at
    std::uint32_t nextPc = 0;    ///< architectural successor PC
    std::optional<RegWrite> write;
    bool isBranch = false;       ///< conditional branch
    bool branchTaken = false;
    std::uint32_t branchTarget = 0;  ///< valid when isBranch
    bool memAccess = false;      ///< load or store touched memory
    std::uint32_t memAddr = 0;
    bool isLoadOp = false;
    bool isStoreOp = false;
    std::int32_t storeValue = 0;  ///< value written (valid when isStoreOp)
};

namespace exec_detail {

inline std::int32_t aluOp(Op op, std::int32_t a, std::int32_t b) {
    const auto ua = static_cast<std::uint32_t>(a);
    const auto ub = static_cast<std::uint32_t>(b);
    switch (op) {
        case Op::kAddu: return static_cast<std::int32_t>(ua + ub);
        case Op::kSubu: return static_cast<std::int32_t>(ua - ub);
        case Op::kAnd: return a & b;
        case Op::kOr: return a | b;
        case Op::kXor: return a ^ b;
        case Op::kNor: return ~(a | b);
        case Op::kSlt: return a < b ? 1 : 0;
        case Op::kSltu: return ua < ub ? 1 : 0;
        case Op::kSllv: return static_cast<std::int32_t>(ua << (ub & 31u));
        case Op::kSrlv: return static_cast<std::int32_t>(ua >> (ub & 31u));
        case Op::kSrav: return a >> (ub & 31u);
        case Op::kMul:
            return static_cast<std::int32_t>(
                static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b));
        case Op::kMulh:
            return static_cast<std::int32_t>(
                (static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b)) >> 32);
        case Op::kDiv:
            // Deterministic trap-free definitions: /0 -> 0; INT_MIN/-1 wraps.
            if (b == 0) return 0;
            if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return a;
            return a / b;
        case Op::kDivu: return ub == 0 ? 0 : static_cast<std::int32_t>(ua / ub);
        case Op::kRem:
            if (b == 0) return a;
            if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return 0;
            return a % b;
        case Op::kRemu: return ub == 0 ? a : static_cast<std::int32_t>(ua % ub);
        default: ASBR_ENSURE(false, "aluOp: not an R-type ALU opcode"); return 0;
    }
}

inline std::int32_t aluImmOp(Op op, std::int32_t a, std::int32_t imm) {
    switch (op) {
        case Op::kAddiu:
            return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                             static_cast<std::uint32_t>(imm));
        case Op::kAndi: return a & imm;
        case Op::kOri: return a | imm;
        case Op::kXori: return a ^ imm;
        case Op::kSlti: return a < imm ? 1 : 0;
        case Op::kSltiu:
            return static_cast<std::uint32_t>(a) < static_cast<std::uint32_t>(imm)
                       ? 1 : 0;
        case Op::kLui: return static_cast<std::int32_t>(
                           static_cast<std::uint32_t>(imm) << 16);
        case Op::kSll: return static_cast<std::int32_t>(
                           static_cast<std::uint32_t>(a) << (imm & 31));
        case Op::kSrl: return static_cast<std::int32_t>(
                           static_cast<std::uint32_t>(a) >> (imm & 31));
        case Op::kSra: return a >> (imm & 31);
        default: ASBR_ENSURE(false, "aluImmOp: not an I-type ALU opcode"); return 0;
    }
}

void doSyscall(ArchState& state, IoContext& io);  // cold path: exec.cpp

}  // namespace exec_detail

/// Execute one pre-decoded micro-op against memory, updating state
/// (including state.pc) and io, and describe it in `r` (every field is
/// overwritten).  The record's decode-time PC is the execution PC — all
/// control-flow targets were resolved against it.  This is THE semantics
/// implementation; every simulator and functional walk lands here.
/// Inline: it sits on the per-instruction hot path of both simulators and
/// every functional walk (sim/functional.hpp).  The pipeline executes
/// straight into its EX latch through this overload; always_inline because
/// the pipeline's cycle loop is large enough that GCC otherwise keeps this
/// as a call.
[[gnu::always_inline]] inline void stepDecoded(ArchState& state,
                                               Memory& memory,
                                               const DecodedOp& dec,
                                               IoContext& io, StepResult& r) {
    const Instruction& ins = dec.ins;
    r = StepResult{};
    r.pc = dec.pc;
    r.nextPc = dec.fallthrough;

    switch (dec.cls) {
        case ExecClass::kAluReg: {
            const std::int32_t v =
                exec_detail::aluOp(ins.op, state.reg(ins.rs), state.reg(ins.rt));
            state.setReg(ins.rd, v);
            r.write = RegWrite{ins.rd, v};
            break;
        }
        case ExecClass::kAluImm: {
            const std::int32_t v =
                exec_detail::aluImmOp(ins.op, state.reg(ins.rs), ins.imm);
            state.setReg(ins.rd, v);
            r.write = RegWrite{ins.rd, v};
            break;
        }
        case ExecClass::kLoad: {
            const std::uint32_t addr =
                static_cast<std::uint32_t>(state.reg(ins.rs)) +
                static_cast<std::uint32_t>(ins.imm);
            std::int32_t v = 0;
            switch (ins.op) {
                case Op::kLb: v = static_cast<std::int8_t>(memory.read8(addr)); break;
                case Op::kLbu: v = memory.read8(addr); break;
                case Op::kLh: v = static_cast<std::int16_t>(memory.read16(addr)); break;
                case Op::kLhu: v = memory.read16(addr); break;
                case Op::kLw: v = static_cast<std::int32_t>(memory.read32(addr)); break;
                default: break;
            }
            state.setReg(ins.rd, v);
            r.write = RegWrite{ins.rd, v};
            r.memAccess = true;
            r.isLoadOp = true;
            r.memAddr = addr;
            break;
        }
        case ExecClass::kStore: {
            const std::uint32_t addr =
                static_cast<std::uint32_t>(state.reg(ins.rs)) +
                static_cast<std::uint32_t>(ins.imm);
            const std::int32_t v = state.reg(ins.rt);
            switch (ins.op) {
                case Op::kSb: memory.write8(addr, static_cast<std::uint8_t>(v)); break;
                case Op::kSh:
                    memory.write16(addr, static_cast<std::uint16_t>(v));
                    break;
                case Op::kSw:
                    memory.write32(addr, static_cast<std::uint32_t>(v));
                    break;
                default: break;
            }
            r.memAccess = true;
            r.isStoreOp = true;
            r.memAddr = addr;
            r.storeValue = v;
            break;
        }
        case ExecClass::kCondBranch:
            r.isBranch = true;
            r.branchTarget = dec.target;
            r.branchTaken = evalCond(dec.cond, state.reg(ins.rs));
            if (r.branchTaken) r.nextPc = r.branchTarget;
            break;
        case ExecClass::kJumpLink: {
            const auto link = static_cast<std::int32_t>(dec.fallthrough);
            state.setReg(reg::ra, link);
            r.write = RegWrite{reg::ra, link};
            r.nextPc = dec.target;
            break;
        }
        case ExecClass::kJump:
            r.nextPc = dec.target;
            break;
        case ExecClass::kJumpReg: {
            const auto target = static_cast<std::uint32_t>(state.reg(ins.rs));
            ASBR_ENSURE((target & 3u) == 0, "jr/jalr to unaligned address");
            if (ins.op == Op::kJalr) {
                const auto link = static_cast<std::int32_t>(dec.fallthrough);
                state.setReg(ins.rd, link);
                r.write = RegWrite{ins.rd, link};
            }
            r.nextPc = target;
            break;
        }
        case ExecClass::kSyscall:
            exec_detail::doSyscall(state, io);
            break;
        case ExecClass::kNop:
            break;
    }

    // Writes to r0 are architecturally discarded; hide them from the timing
    // model and BDT too.
    if (r.write && r.write->reg == reg::zero) r.write.reset();

    state.pc = r.nextPc;
}

/// stepDecoded() returning the StepResult by value.
inline StepResult stepDecoded(ArchState& state, Memory& memory,
                              const DecodedOp& dec, IoContext& io) {
    StepResult r;
    stepDecoded(state, memory, dec, io, r);
    return r;
}

}  // namespace asbr
