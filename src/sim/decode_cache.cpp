#include "sim/decode_cache.hpp"

#include "util/ensure.hpp"

namespace asbr {

DecodedOp decodeOne(const Instruction& ins, std::uint32_t pc) {
    DecodedOp d;
    d.ins = ins;
    d.pc = pc;
    d.fallthrough = pc + kInstrBytes;
    d.fetchNext = d.fallthrough;
    d.srcs = srcRegs(ins);
    if (const auto dest = destReg(ins)) {
        d.dest = *dest;
        d.writesDest = *dest != reg::zero;
    }

    const Op op = ins.op;
    if (op <= Op::kRemu) {
        d.cls = ExecClass::kAluReg;
    } else if (op >= Op::kAddiu && op <= Op::kSra) {
        d.cls = ExecClass::kAluImm;
    } else if (isLoad(op)) {
        d.cls = ExecClass::kLoad;
        d.load = true;
    } else if (isStore(op)) {
        d.cls = ExecClass::kStore;
        d.store = true;
    } else if (isCondBranch(op)) {
        d.cls = ExecClass::kCondBranch;
        d.condBranch = true;
        d.cond = branchCond(op);
        d.target = pc + kInstrBytes +
                   static_cast<std::uint32_t>(ins.imm) * kInstrBytes;
    } else if (op == Op::kJ || op == Op::kJal) {
        d.cls = op == Op::kJ ? ExecClass::kJump : ExecClass::kJumpLink;
        d.target = (pc & 0xF000'0000u) |
                   (static_cast<std::uint32_t>(ins.imm) * kInstrBytes);
        d.fetchNext = d.target;
    } else if (op == Op::kJr || op == Op::kJalr) {
        d.cls = ExecClass::kJumpReg;
    } else if (op == Op::kSys) {
        d.cls = ExecClass::kSyscall;
    } else {
        ASBR_ENSURE(op == Op::kNop, "decodeOne: unhandled opcode");
        d.cls = ExecClass::kNop;
    }
    return d;
}

void DecodeCache::bind(const Program& program) {
    program_ = &program;
    textBase_ = program.textBase;
    textBytes_ = program.textEnd() - program.textBase;
    slots_.assign(program.code.size(), DecodedOp{});
    filled_.assign(program.code.size(), 0);
}

void DecodeCache::fill(std::size_t index, std::uint32_t pc) {
    slots_[index] = decodeOne(program_->code[index], pc);
    filled_[index] = 1;
    ++stats_.fills;
}

}  // namespace asbr
