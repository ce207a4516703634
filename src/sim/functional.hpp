// Fast functional instruction-set simulator.
//
// Used by the profiler (per-branch statistics, def-to-branch distance
// analysis) and as the golden reference in differential tests against the
// cycle-accurate pipeline.  walk() is the one functional stepping loop:
// FunctionalSim::run, the branch and prediction profiles, the fast-forward
// log's recording walk and sampled drift all step through it.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>

#include "asm/program.hpp"
#include "mem/memory.hpp"
#include "sim/decode_cache.hpp"
#include "sim/exec.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// Execute up to `count` instructions from `state` on the decode-cached ISS,
/// stopping early once the program exits, and return how many executed.
/// After each instruction the observer sees its record and the registers as
/// the instruction left them: `observe(const DecodedOp&, const ArchState&)`.
/// An observer reads what it needs from those two — a branch or store writes
/// no register, so its source registers still hold the condition value,
/// base address and store value — and the StepResult stays dead code once
/// stepDecoded inlines (reading it back slowed a walk by a quarter or more).
/// An observer invocable as `observe(const DecodedOp&, const StepResult&)`
/// gets the StepResult instead; FunctionalSim's trace hook is one.
template <class Observer>
inline std::uint64_t walk(DecodeCache& decode, ArchState& state,
                          Memory& memory, IoContext& io, std::uint64_t count,
                          Observer&& observe) {
    std::uint64_t n = 0;
    for (; n < count && !io.exited; ++n) {
        const DecodedOp& dec = decode.lookup(state.pc);
        if constexpr (std::is_invocable_v<Observer&, const DecodedOp&,
                                          const StepResult&>) {
            observe(dec, stepDecoded(state, memory, dec, io));
        } else {
            (void)stepDecoded(state, memory, dec, io);
            observe(dec, static_cast<const ArchState&>(state));
        }
    }
    return n;
}

/// The address store `dec` wrote, read from the registers after it executed:
/// a store writes no register, so its base is unchanged.
[[nodiscard]] inline std::uint32_t storeAddress(const DecodedOp& dec,
                                                const ArchState& state) {
    return static_cast<std::uint32_t>(state.reg(dec.ins.rs)) +
           static_cast<std::uint32_t>(dec.ins.imm);
}

/// Outcome of a functional run.
struct FunctionalResult {
    std::uint64_t instructions = 0;
    bool exited = false;
    std::int32_t exitCode = 0;
    std::string output;
};

class FunctionalSim {
public:
    /// Observer invoked after each committed instruction.
    using TraceHook = std::function<void(const Instruction&, const StepResult&)>;

    FunctionalSim(const Program& program, Memory& memory);

    /// Reset architectural state (PC to entry, SP to stack top, regs to 0).
    void reset();

    /// Run until exit or the instruction limit, calling the trace hook if
    /// one is installed; throws SimTimeoutError if the limit is reached
    /// (runaway program).
    FunctionalResult run(std::uint64_t maxInstructions = 500'000'000);

    /// run() with `observe`, a walk() observer, in place of the trace hook.
    template <class Observer>
    FunctionalResult run(std::uint64_t maxInstructions, Observer&& observe) {
        FunctionalResult result;
        IoContext io;
        result.instructions =
            walk(decode_, state_, memory_, io, maxInstructions, observe);
        if (!io.exited)
            throw SimTimeoutError(watchdogMessage(
                "functional", "instruction", maxInstructions, "instructions"));
        result.exited = true;
        result.exitCode = io.exitCode;
        result.output = std::move(io.output);
        return result;
    }

    /// Install an optional per-instruction observer.
    void setTraceHook(TraceHook hook) { hook_ = std::move(hook); }

    [[nodiscard]] const ArchState& state() const { return state_; }
    [[nodiscard]] ArchState& state() { return state_; }

private:
    const Program& program_;
    Memory& memory_;
    DecodeCache decode_;  ///< per-PC micro-op records; survive reset()
    ArchState state_;
    TraceHook hook_;
};

}  // namespace asbr
