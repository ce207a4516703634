#include "driver/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace asbr::driver {

std::size_t resolveThreads(std::size_t threads) {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void parallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
    threads = std::min(resolveThreads(threads), count);
    std::atomic<std::size_t> next{0};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError) firstError = std::current_exception();
                // Keep draining: other indices must still run so callers can
                // rely on every slot being visited (or the batch rethrowing).
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
        for (std::thread& t : pool) t.join();
    }
    if (firstError) std::rethrow_exception(firstError);
}

}  // namespace asbr::driver
