#include "sim/functional.hpp"

#include "util/ensure.hpp"

namespace asbr {

FunctionalSim::FunctionalSim(const Program& program, Memory& memory)
    : program_(program), memory_(memory), decode_(program) {
    reset();
}

void FunctionalSim::reset() { state_ = resetState(program_); }

FunctionalResult FunctionalSim::run(std::uint64_t maxInstructions) {
    FunctionalResult result;
    IoContext io;
    while (!io.exited) {
        if (result.instructions >= maxInstructions)
            throw SimTimeoutError(watchdogMessage(
                "functional", "instruction", maxInstructions, "instructions"));
        // Decode-cached hot path: identical semantics to step() — the
        // record was produced by the same decodeOne() — without re-running
        // the decoder on every trip around a loop.
        const DecodedOp& dec = decode_.lookup(state_.pc);
        const StepResult sr = stepDecoded(state_, memory_, dec, io);
        ++result.instructions;
        if (hook_) hook_(dec.ins, sr);
    }
    result.exited = io.exited;
    result.exitCode = io.exitCode;
    result.output = std::move(io.output);
    return result;
}

}  // namespace asbr
