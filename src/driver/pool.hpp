// Fixed-size worker pool for deterministic batch execution.
//
// parallelFor(count, threads, body) runs body(0..count-1), each index exactly
// once, on at most `threads` workers.  Indices are claimed from an atomic
// counter, so scheduling is dynamic (fast items don't block behind slow
// ones), but callers write results into pre-sized slots keyed by index —
// merging is therefore always in submission order and the output of a batch
// is independent of the thread count and of scheduling luck.
//
// threads <= 1 (or count <= 1) runs the one worker loop on the calling
// thread: the serial path and the parallel path execute the exact same body
// and drain the same way after an error.
#pragma once

#include <cstddef>
#include <functional>

namespace asbr::driver {

/// Number of workers actually used for `count` items on `threads` threads
/// (0 threads = hardware concurrency).
[[nodiscard]] std::size_t resolveThreads(std::size_t threads);

/// Run body(i) for every i in [0, count), on at most `threads` workers.
/// The first exception thrown by any body is rethrown on the calling thread
/// after all workers have drained.
void parallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body);

}  // namespace asbr::driver
