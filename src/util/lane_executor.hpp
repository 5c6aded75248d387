// Lane-serialized worker pool: the execution substrate of the parallel
// domain core (DomainScheduler::runParallel) and of the embarrassingly
// parallel bench sweeps (parallelFor).
//
// post(lane, fn) guarantees that closures sharing a lane key execute in
// FIFO order and never concurrently, while closures on different lanes run
// in parallel across the pool.  The domain scheduler keys lanes by domain
// id, so one domain never advances on two workers at once.
//
// Implementation: one FIFO deque + mutex + condition variable per worker,
// lanes mapped to workers by `lane % workers`.  Per-worker FIFO trivially
// implies per-lane FIFO and mutual exclusion; no work stealing, because
// stealing would break the ordering guarantee.  Queues are unbounded.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace edgesim {

class LaneExecutor {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit LaneExecutor(std::size_t workers);
  /// Joins after completing every queued task.
  ~LaneExecutor();

  LaneExecutor(const LaneExecutor&) = delete;
  LaneExecutor& operator=(const LaneExecutor&) = delete;

  /// Enqueue `fn` on `lane`.  Thread-safe; never blocks on task execution.
  void post(std::uint64_t lane, std::function<void()> fn);

  /// Block until every task posted so far (and everything those tasks
  /// post transitively) has finished.
  void drain();

  /// Run fn(i) for every i in [0, n), one task per index on its own lane,
  /// across `threads` workers (0 = hardware concurrency), and wait for all
  /// of them.  For embarrassingly parallel sweeps: each task owns a private
  /// Simulation, so tasks share nothing.
  static void parallelFor(std::size_t n, std::size_t threads,
                          const std::function<void(std::size_t)>& fn);

  std::uint64_t tasksExecuted() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool stop = false;
    std::thread thread;
  };

  void workerLoop(Worker& worker);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> executed_{0};
  // drain() bookkeeping: tasks posted but not yet finished.
  std::atomic<std::int64_t> inFlight_{0};
  std::mutex drainMutex_;
  std::condition_variable drainCv_;
};

}  // namespace edgesim
