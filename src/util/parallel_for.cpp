#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace edgesim {

void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads = std::clamp<std::size_t>(threads, 1, std::max<std::size_t>(n, 1));
  std::atomic<std::size_t> next{0};
  const auto work = [&next, n, &fn] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();  // the calling thread takes tasks too
  for (std::thread& thread : pool) thread.join();
}

}  // namespace edgesim
