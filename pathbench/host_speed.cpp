#include "host_speed.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace pathbench {

namespace {

// Keeps the kernel's results observable so the optimiser cannot drop it.
volatile std::uint64_t gSink = 0;

}  // namespace

double referenceKernelMs() {
  constexpr int kIterations = 70000;
  constexpr std::size_t kHeapSize = 50000;
  constexpr std::size_t kMapSize = 10000;

  std::mt19937_64 rng(42);
  std::uint64_t sink = 0;
  using Event = std::pair<std::uint64_t, std::function<void()>>;
  const auto later = [](const Event& a, const Event& b) {
    return a.first > b.first;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(later)> heap(later);
  std::map<std::uint64_t, std::string> index;

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    auto payload = std::make_shared<std::array<std::uint64_t, 8>>();
    (*payload)[0] = static_cast<std::uint64_t>(i);
    heap.emplace(rng() % 1000000, [payload, &sink] { sink += (*payload)[0]; });
    if (heap.size() > kHeapSize) {
      heap.top().second();
      heap.pop();
    }
    index[rng() % (2 * kMapSize)] = "a payload string long enough to allocate";
    if (index.size() > kMapSize) index.erase(index.begin());
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  gSink = sink;
  return ms;
}

}  // namespace pathbench
