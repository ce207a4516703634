// driver::Deadline — the per-job wall-clock watchdog and cooperative
// interrupt check, delivered through the same CycleHook seam the fault
// injector uses (docs/robustness.md).
//
// Every watchdog in the tree now reports through one structured one-line
// message shape (util/ensure.hpp watchdogMessage):
//
//   functional watchdog: run exceeded the configured instruction bound ...
//   pipeline watchdog:   run exceeded the configured cycle bound ...
//   job watchdog:        run exceeded the configured wall-clock bound ...
//
// The first two bound *simulated* work and stay part of the simulation's
// semantics (a fault campaign classifies the cycle bound as a hang).  The
// Deadline bounds *host* time: exceeding it throws JobTimeoutError, which
// the durable engine treats as a failed attempt — retried with backoff and
// eventually quarantined, never classified as a simulated outcome.
//
// Cost discipline: the wall clock is only consulted every kCheckInterval
// cycles (host-time reads are expensive and the hook runs once per simulated
// cycle), and the engine installs the hook at all only when a timeout or an
// interrupt flag is actually configured — plain runs keep a null cycleHook.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "sim/functional.hpp"
#include "sim/pipeline.hpp"

namespace asbr::driver {

class Deadline : public CycleHook {
public:
    /// Cycles between wall-clock checks (power of two; the hook is on the
    /// per-cycle path, so the common case must be one counter increment):
    /// the interval at which a functional walk polls, too.
    static constexpr std::uint64_t kCheckInterval = kWalkPollInterval;

    /// `wallMs == 0` disables the timeout; `interrupted` may be null.
    explicit Deadline(std::uint64_t wallMs,
                      const std::atomic<bool>* interrupted = nullptr)
        : wallMs_(wallMs),
          interrupted_(interrupted),
          start_(std::chrono::steady_clock::now()) {}

    /// True when the hook has anything to watch — callers skip installing
    /// an inert hook so un-watched runs pay nothing per cycle.
    [[nodiscard]] bool active() const {
        return wallMs_ != 0 || interrupted_ != nullptr;
    }

    void onCycle(std::uint64_t cycle) override;

    /// Immediate check, also usable outside a simulation loop.  Throws
    /// JobInterruptedError / JobTimeoutError.
    void check() const;

private:
    std::uint64_t wallMs_;
    const std::atomic<bool>* interrupted_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t sinceCheck_ = 0;
};

/// Deterministic retry backoff: milliseconds slept before executing attempt
/// `attempt` (1-based).  The first attempt never waits; later attempts wait
/// 25 << (attempt - 2) ms, capped at 400 ms.  Pure function of the attempt
/// number — results never include wall-clock time, so the schedule cannot
/// perturb report bytes.
[[nodiscard]] std::uint64_t backoffDelayMs(std::uint64_t attempt);

}  // namespace asbr::driver
