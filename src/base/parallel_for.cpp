#include "base/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mhs {

std::size_t resolve_threads(std::size_t threads) {
  return threads != 0 ? threads
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    // Declared after the state the helpers share, so a failed spawn
    // unwinds through this vector first: its jthreads are joined before
    // that state goes away.
    std::vector<std::jthread> helpers;
    const std::size_t executors = std::min(resolve_threads(threads), n);
    for (std::size_t t = 1; t < executors; ++t) helpers.emplace_back(drain);
    drain();
  }  // joins the helpers; their writes happen-before the return
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mhs
