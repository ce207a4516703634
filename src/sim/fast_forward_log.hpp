// Shared fast-forward log of sampled simulation (docs/simulation.md).
//
// ASBR never changes architectural results, so every sampled cell on one
// workload executes the same committed instruction stream, and every cell
// with the same window geometry skips the same stretches of it.  One
// decode-cached ISS walk records that stream once, on a grid derived from
// the geometry:
//
//   - a checkpoint every spacing() instructions — the smallest multiple of
//     the unit length W+M+S that is at least kMinSpacing, so checkpoint k
//     sits at a nominal window start — and one at the exit: the register
//     file, the mask of registers ever written, and the output length;
//   - for each interval between two checkpoints, the final value of every
//     memory word *written* inside it, packed as runs of consecutive words;
//   - the position and value of every store to the BIT bank-select
//     register.
//
// A cell crossing a skip applies the word runs of the intervals it crosses
// and loads the last checkpoint at or before its target instead of
// re-executing (runSampled, sim/sampling.cpp).  Written words, not only
// words that differ at the next checkpoint: a cell parked mid-interval may
// hold a transient value that the interval later overwrites and restores.
// This is the architectural half of SMARTS live-points, and it is exact —
// the log holds architecture only; each cell keeps its own warm
// microarchitectural state.
//
// The minimum spacing bounds the log for tiny geometries: it grows by at
// most one checkpoint and one interval per kMinSpacing instructions, under
// 2 MB per 15M instructions on every codec (docs/simulation.md).  A coarser
// grid never makes a cell step more than it would without a log, because a
// cell only jumps to a checkpoint that lies ahead of it.  A geometry that
// never skips (S = 0) needs no log at all; record() then walks nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "mem/memory.hpp"
#include "sim/exec.hpp"
#include "sim/sampling.hpp"

namespace asbr {

class FastForwardLog {
public:
    /// Architectural state at the start of one sampling unit, or at the exit.
    struct Checkpoint {
        std::uint64_t position = 0;  ///< instructions executed before it
        ArchState state;
        std::uint32_t writtenRegs = 0;  ///< bit r: register r written so far
        std::size_t outputLength = 0;   ///< program output bytes so far
    };

    /// A store to the BIT bank-select control register.
    struct BankSelect {
        std::uint64_t position = 0;  ///< instructions executed before it
        std::int32_t value = 0;
    };

    /// Smallest checkpoint spacing, in instructions.
    static constexpr std::uint64_t kMinSpacing = std::uint64_t{1} << 12;

    /// Walk `program` to exit on `memory` — a freshly prepared image, which
    /// the walk consumes — and record the log for `sampling`; with
    /// `sampling.skip == 0` return an empty log without walking.  `poll`,
    /// when set, runs at least once every kWalkPollInterval
    /// (sim/functional.hpp) instructions of the walk and may throw to
    /// abandon it.  Throws SimTimeoutError once `maxInstructions` execute
    /// without an exit.
    [[nodiscard]] static FastForwardLog record(
        const Program& program, Memory& memory, const SamplingConfig& sampling,
        std::uint64_t maxInstructions,
        const std::function<void()>& poll = {});

    [[nodiscard]] const SamplingConfig& sampling() const { return sampling_; }
    /// The smallest multiple of W+M+S not below kMinSpacing: checkpoint k
    /// sits at position k * spacing(), except the last, which sits at the
    /// exit.
    [[nodiscard]] std::uint64_t spacing() const { return spacing_; }
    /// Instructions executed through the exit syscall (0 in an empty log).
    [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
    [[nodiscard]] std::int32_t exitCode() const { return exitCode_; }
    [[nodiscard]] const std::string& output() const { return output_; }
    [[nodiscard]] const std::vector<Checkpoint>& checkpoints() const {
        return checkpoints_;
    }

    /// Write the final value of every word written in interval `k` (from
    /// checkpoint k to checkpoint k+1) into `memory`.
    void applyInterval(std::size_t k, Memory& memory) const;

    /// Bank-select stores at positions in [from, to), in program order.
    [[nodiscard]] std::span<const BankSelect> bankSelects(
        std::uint64_t from, std::uint64_t to) const;

    /// Words recorded across all intervals, and the bytes their packed runs
    /// take (the log's memory budget; docs/simulation.md).
    [[nodiscard]] std::uint64_t writtenWords() const;
    [[nodiscard]] std::uint64_t packedBytes() const;

private:
    FastForwardLog() = default;  ///< logs come from record()

    SamplingConfig sampling_;
    std::uint64_t spacing_ = 0;
    std::uint64_t instructions_ = 0;
    std::int32_t exitCode_ = 0;
    std::string output_;
    std::vector<Checkpoint> checkpoints_;
    /// Interval k as runs [address, count, value x count]...; exactly sized.
    std::vector<std::vector<std::uint32_t>> intervals_;
    std::vector<BankSelect> bankSelects_;
};

}  // namespace asbr
