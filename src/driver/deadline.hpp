// driver::Deadline — the per-job wall-clock watchdog and cooperative
// interrupt check (docs/robustness.md).
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
// Cost discipline: the engine hands check() to every simulation loop of a
// job as its poll, which a functional walk runs once per kWalkPollInterval
// instructions and the pipeline once per kWalkPollInterval cycles
// (sim/functional.hpp) — host-time reads are expensive, so never per step.
// With no timeout and no interrupt flag a check costs one call and two
// tests, so the engine passes it unconditionally.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace asbr::driver {

class Deadline {
public:
    /// `wallMs == 0` disables the timeout; `interrupted` may be null.
    explicit Deadline(std::uint64_t wallMs,
                      const std::atomic<bool>* interrupted = nullptr)
        : wallMs_(wallMs),
          interrupted_(interrupted),
          start_(std::chrono::steady_clock::now()) {}

    /// Throws JobInterruptedError once the interrupt flag is raised and
    /// JobTimeoutError once the wall-clock bound has passed.
    void check() const;

private:
    std::uint64_t wallMs_;
    const std::atomic<bool>* interrupted_;
    std::chrono::steady_clock::time_point start_;
};

/// Deterministic retry backoff: milliseconds slept before executing attempt
/// `attempt` (1-based).  The first attempt never waits; later attempts wait
/// 25 << (attempt - 2) ms, capped at 400 ms.  Pure function of the attempt
/// number — results never include wall-clock time, so the schedule cannot
/// perturb report bytes.
[[nodiscard]] std::uint64_t backoffDelayMs(std::uint64_t attempt);

}  // namespace asbr::driver
