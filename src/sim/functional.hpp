// Fast functional instruction-set simulator.
//
// Used by the profiler (per-branch statistics, def-to-branch distance
// analysis) and as the golden reference in differential tests against the
// cycle-accurate pipeline.  walk() is the one functional stepping loop:
// FunctionalSim::run, the branch and prediction profiles, the fast-forward
// log's recording walk and sampled drift all step through it, by pointer
// over the decoded text (sim/decode_cache.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>

#include "asm/program.hpp"
#include "mem/memory.hpp"
#include "sim/decode_cache.hpp"
#include "sim/exec.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// Execute up to `count` instructions from `state` on the decoded text,
/// stopping early once the program exits, and return how many executed.
/// With `count == 0` or after the exit it returns 0 without touching the
/// text, whatever `state.pc` holds.
/// After each instruction the observer sees its record and the registers as
/// the instruction left them: `observe(const DecodedOp&, const ArchState&)`.
/// An observer reads what it needs from those two — a branch or store writes
/// no register, so its source registers still hold the condition value,
/// base address and store value — and the StepResult stays dead code once
/// stepDecoded inlines (reading it back slowed a walk by a quarter or more).
/// An observer invocable as `observe(const DecodedOp&, const StepResult&)`
/// gets the StepResult instead; FunctionalSim's trace hook is one.
///
/// The walk steps by pointer: after an instruction that fell through, the
/// next record is the following one in the decoded text.  Every other
/// successor — a taken control transfer, or a fall-through off the last
/// word — goes through the checked DecodeCache::at, which throws for a PC
/// outside the text or misaligned, at the same instruction as a lookup per
/// step.  A walk counts no decode-cache lookups.
template <class Observer>
inline std::uint64_t walk(const DecodeCache& decode, ArchState& state,
                          Memory& memory, IoContext& io, std::uint64_t count,
                          Observer&& observe) {
    if (count == 0 || io.exited) return 0;
    const std::span<const DecodedOp> text = decode.records();
    const DecodedOp* const end = text.data() + text.size();
    const DecodedOp* dec = &decode.at(state.pc);
    std::uint64_t n = 0;
    for (;;) {
        if constexpr (std::is_invocable_v<Observer&, const DecodedOp&,
                                          const StepResult&>) {
            observe(*dec, stepDecoded(state, memory, *dec, io));
        } else {
            (void)stepDecoded(state, memory, *dec, io);
            observe(*dec, static_cast<const ArchState&>(state));
        }
        ++n;
        // Only the exit syscall sets io.exited, so only a syscall can end
        // the walk early.
        if (dec->cls == ExecClass::kSyscall && io.exited) return n;
        if (n == count) return n;
        if (state.pc == dec->fallthrough && dec + 1 != end)
            ++dec;
        else
            dec = &decode.at(state.pc);
    }
}

/// Most instructions a functional pass runs between two calls of its poll
/// (FunctionalSim::run, FastForwardLog::record); a deadline's poll reads the
/// clock, so this keeps the check off the per-instruction path.
inline constexpr std::uint64_t kWalkPollInterval = std::uint64_t{1} << 16;

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
    /// `poll`, when set, runs at least once every kWalkPollInterval
    /// instructions and may throw to abandon the run.
    template <class Observer>
    FunctionalResult run(std::uint64_t maxInstructions, Observer&& observe,
                         const std::function<void()>& poll = {}) {
        FunctionalResult result;
        IoContext io;
        while (result.instructions < maxInstructions && !io.exited) {
            result.instructions += walk(
                decode_, state_, memory_, io,
                std::min(kWalkPollInterval,
                         maxInstructions - result.instructions),
                observe);
            if (poll) poll();
        }
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
    DecodeCache decode_;  ///< the decoded text; survives reset()
    ArchState state_;
    TraceHook hook_;
};

}  // namespace asbr
