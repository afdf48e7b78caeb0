// Batch-scoped parallel loop.
//
// Runs one batch of coarse-grained independent iterations (one HW/SW
// partitioning run each, in the explorer's case) on the calling thread
// plus threads started for that batch and joined before it returns. Every
// executor takes the next index from one shared counter, so the order in
// which iterations run depends on scheduling: callers that need
// deterministic results (the explorer does) must make each iteration
// independent and merge by index, never by completion order.
#pragma once

#include <cstddef>
#include <functional>

namespace mhs {

/// The executor count a `threads` request stands for: itself, or every
/// core (std::thread::hardware_concurrency(), at least 1) when it is 0.
std::size_t resolve_threads(std::size_t threads);

/// Runs body(i) for every i in [0, n) on min(resolve_threads(threads), n)
/// executors, the calling thread one of them (at one executor no thread
/// is started). Every iteration runs even when some throw; after the join
/// the first exception caught is rethrown. If starting a thread fails, the
/// threads already started are joined and the failure propagates.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace mhs
