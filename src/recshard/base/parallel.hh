/**
 * @file
 * A small fork-join loop for pure, independently addressable work.
 *
 * parallelFor(n, fn) calls fn(worker, item) once for every item in
 * [0, n) over parallelWorkers(n) workers and returns when all are
 * done. Workers claim items in increasing order from a shared
 * counter, so which worker runs an item (and when) varies from run
 * to run: callers must make each item write only its own output and
 * keep results independent of the worker count. The worker id
 * indexes per-worker scratch. Worker 0 is the calling thread; with
 * one worker the loop runs inline.
 */

#ifndef RECSHARD_BASE_PARALLEL_HH
#define RECSHARD_BASE_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace recshard {

/** Workers for n items: min(hardware threads, n, 8), at least 1. */
inline unsigned
parallelWorkers(std::size_t n)
{
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        std::max<std::size_t>(1, std::min({hw, n, std::size_t{8}})));
}

template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    const auto drain = [&](unsigned worker) {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed))
            fn(worker, i);
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < parallelWorkers(n); ++w)
        threads.emplace_back(drain, w);
    drain(0);
    for (std::thread &t : threads)
        t.join();
}

} // namespace recshard

#endif // RECSHARD_BASE_PARALLEL_HH
