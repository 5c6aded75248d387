#include "util/lane_executor.hpp"

#include "util/assert.hpp"

namespace edgesim {

LaneExecutor::LaneExecutor(std::size_t workers) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { workerLoop(*raw); });
    workers_.push_back(std::move(worker));
  }
}

LaneExecutor::~LaneExecutor() {
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->stop = true;
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) worker->thread.join();
}

void LaneExecutor::post(std::uint64_t lane, std::function<void()> fn) {
  ES_ASSERT(fn != nullptr);
  Worker& worker = *workers_[lane % workers_.size()];
  inFlight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(worker.mutex);
    ES_ASSERT_MSG(!worker.stop, "post() after shutdown");
    worker.queue.push_back(std::move(fn));
  }
  worker.cv.notify_one();
}

void LaneExecutor::drain() {
  std::unique_lock lock(drainMutex_);
  drainCv_.wait(lock, [this] {
    return inFlight_.load(std::memory_order_acquire) == 0;
  });
}

void LaneExecutor::parallelFor(std::size_t n, std::size_t threads,
                               const std::function<void(std::size_t)>& fn) {
  LaneExecutor pool(threads != 0 ? threads
                                 : std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < n; ++i) pool.post(i, [&fn, i] { fn(i); });
  pool.drain();
}

void LaneExecutor::workerLoop(Worker& worker) {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(worker.mutex);
      worker.cv.wait(lock,
                     [&worker] { return worker.stop || !worker.queue.empty(); });
      if (worker.queue.empty()) return;  // stop requested and drained
      task = std::move(worker.queue.front());
      worker.queue.pop_front();
    }
    task();
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (inFlight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last outstanding task: wake drain() waiters.  Taking the mutex
      // orders the notification after the waiter's predicate check.
      std::lock_guard lock(drainMutex_);
      drainCv_.notify_all();
    }
  }
}

}  // namespace edgesim
