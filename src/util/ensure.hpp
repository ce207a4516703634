// Runtime invariant checking.
//
// ASBR_ENSURE is used for preconditions and internal invariants across the
// library.  Violations throw (never abort) so that tests can assert on
// failure paths and embedding applications can recover.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace asbr {

/// Thrown when a library precondition or internal invariant is violated.
/// what() is the full diagnostic; message() is only the human-readable
/// reason, without the failed check's source spelling or file.
class EnsureError : public std::logic_error {
public:
    explicit EnsureError(const std::string& what)
        : std::logic_error(what), message_(what) {}
    EnsureError(const std::string& what, std::string message)
        : std::logic_error(what), message_(std::move(message)) {}

    [[nodiscard]] const std::string& message() const { return message_; }

private:
    std::string message_;
};

/// Thrown when a simulation exceeds its cycle/instruction watchdog bound.
/// Part of the EnsureError family so existing catch sites keep working, but
/// distinguishable: fault campaigns classify it as a hang, not a failure of
/// the simulator itself.
class SimTimeoutError : public EnsureError {
public:
    explicit SimTimeoutError(const std::string& what) : EnsureError(what) {}
};

/// Thrown by the per-job wall-clock watchdog (driver::Deadline).  NOT a
/// SimTimeoutError on purpose: a simulated hang (cycle bound) is a property
/// of the simulated machine and fault campaigns classify it as such, while a
/// wall-clock timeout is a property of the host run — the durable engine
/// retries and eventually quarantines the job instead.
class JobTimeoutError : public EnsureError {
public:
    explicit JobTimeoutError(const std::string& what) : EnsureError(what) {}
};

/// Thrown when a cooperative interrupt (SIGINT/SIGTERM checkpoint) asks an
/// in-flight job to stop.  The durable engine drops the attempt without
/// recording a failure — a resumed journal re-runs the job from scratch.
class JobInterruptedError : public EnsureError {
public:
    explicit JobInterruptedError(const std::string& what) : EnsureError(what) {}
};

/// The one structured shape every watchdog message uses:
///   "<what> watchdog: run exceeded the configured <unit> bound of N <units>"
/// Shared by the functional ISS (instructions), the pipeline (cycles) and
/// the per-job wall clock (ms) so timeouts read identically everywhere a
/// tool reports them (asbr-faults replay, sampled runs, quarantine errors).
[[nodiscard]] inline std::string watchdogMessage(const char* what,
                                                 const char* unit,
                                                 std::uint64_t bound,
                                                 const char* suffix) {
    return std::string(what) + " watchdog: run exceeded the configured " +
           unit + " bound of " + std::to_string(bound) + " " + suffix;
}

namespace detail {
/// what() names the failed check's expression and its source file by base
/// name only — no directory and no line — so it does not depend on the
/// checkout path.  message() carries the reason alone: fault reports record
/// it as their `detail`, so rewording or moving a check leaves them intact.
[[noreturn]] inline void ensureFail(const char* expr, std::string_view file,
                                    const std::string& msg) {
    file.remove_prefix(file.find_last_of('/') + 1);
    std::ostringstream os;
    os << "ASBR_ENSURE failed: (" << expr << ") in " << file;
    if (!msg.empty()) os << " — " << msg;
    throw EnsureError(os.str(), msg.empty() ? "ASBR_ENSURE failed" : msg);
}
}  // namespace detail

}  // namespace asbr

/// Check a precondition/invariant; throws asbr::EnsureError when false.
#define ASBR_ENSURE(expr, msg)                                              \
    do {                                                                    \
        if (!(expr))                                                        \
            ::asbr::detail::ensureFail(#expr, __FILE__, std::string(msg));  \
    } while (0)
