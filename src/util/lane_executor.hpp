// Lane-serialized worker pool: the execution substrate of the controller's
// concurrent hot path.
//
// post(lane, fn) guarantees that closures sharing a lane key execute in
// FIFO order and never concurrently, while closures on different lanes run
// in parallel across the pool.  The controller keys request lanes by the
// (client, service) FlowMemory shard hash, so per-flow handling stays
// ordered without any global lock; deployment state keeps its own
// serialization one level down (the Dispatcher's per-(service, cluster)
// coalescing table, which only ever runs on the simulation thread).
//
// Implementation: one FIFO deque + mutex + condition variable per worker,
// lanes mapped to workers by `lane % workers`.  Per-worker FIFO trivially
// implies per-lane FIFO and mutual exclusion; no work stealing, because
// stealing would break the ordering guarantee the controller relies on.
//
// Bounded admission (overload governor, PR 5): a nonzero per-worker
// queueCapacity turns unbounded queue growth into explicit SHEDDING.  When
// a worker's queue is full the pool either rejects the incoming task
// (kRejectNewest) or, under kDeadlineAware, evicts the queued task with
// the nearest deadline when that deadline is sooner than the incoming
// task's -- the request most likely to blow its budget anyway is the one
// dropped.  A shed task never runs; its onShed callback fires instead (on
// the posting thread), which is how the controller answers shed requests
// with an immediate degraded cloud redirect.  The default capacity of 0
// keeps the historical unbounded behaviour bit-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace edgesim {

/// What to do with a task posted to a full lane queue.
enum class ShedPolicy {
  /// Reject the incoming task.
  kRejectNewest,
  /// Evict the queued task with the nearest deadline if it is sooner than
  /// the incoming task's (no-deadline tasks are never evicted); otherwise
  /// reject the incoming task.
  kDeadlineAware,
};

struct LaneExecutorOptions {
  std::size_t workers = 1;
  /// Per-worker queue capacity; 0 = unbounded (never sheds).
  std::size_t queueCapacity = 0;
  ShedPolicy shedPolicy = ShedPolicy::kRejectNewest;
};

class LaneExecutor {
 public:
  /// Spawns `workers` threads (at least 1), unbounded queues.
  explicit LaneExecutor(std::size_t workers);
  explicit LaneExecutor(LaneExecutorOptions options);
  /// Joins after completing every queued task.
  ~LaneExecutor();

  LaneExecutor(const LaneExecutor&) = delete;
  LaneExecutor& operator=(const LaneExecutor&) = delete;

  /// Per-task admission metadata.
  struct TaskMeta {
    /// Deadline in an arbitrary monotonic unit chosen by the caller (the
    /// controller uses sim-time nanos); 0 = no deadline.  Only consulted
    /// by ShedPolicy::kDeadlineAware eviction -- the pool never interprets
    /// the value against a clock.
    std::int64_t deadlineNanos = 0;
    /// Invoked exactly once, on the thread calling post(), if this task is
    /// shed (rejected at admission or evicted later by a deadline-aware
    /// post to the same worker).  The task's fn never runs in that case.
    std::function<void()> onShed;
  };

  /// Enqueue `fn` on `lane`.  Thread-safe; never blocks on task execution.
  /// Returns false when the INCOMING task was shed (full queue); true when
  /// it was admitted -- note a deadline-aware admission may shed a
  /// previously queued task instead, delivered via that task's onShed.
  bool post(std::uint64_t lane, std::function<void()> fn);
  bool post(std::uint64_t lane, std::function<void()> fn, TaskMeta meta);

  /// Telemetry hooks.  onTaskStart is invoked on the worker thread as each
  /// task STARTS with the task's queue wait (post -> dequeue, wall
  /// seconds) and the number of tasks still in flight; onTaskShed is
  /// invoked on the shedding (posting) thread whenever a task is shed.
  /// util stays below telemetry in the module graph, so the hooks are
  /// plain callbacks; the controller wires them to registry handles.  Set
  /// before any post() (not synchronized against concurrent posting);
  /// tasks are only timestamped while an observer is installed, so the
  /// unobserved hot path skips the clock read.
  struct TaskObserver {
    std::function<void(double waitSeconds, std::int64_t inFlight)> onTaskStart;
    std::function<void(std::int64_t inFlight)> onTaskShed;
  };
  void setTaskObserver(TaskObserver observer);

  /// Block until every task posted so far (and everything those tasks
  /// post transitively) has finished.
  void drain();

  /// Run fn(i) for every i in [0, n), one task per index on its own lane,
  /// across `threads` workers (0 = hardware concurrency), and wait for all
  /// of them.  For embarrassingly parallel sweeps: each task owns a private
  /// Simulation, so tasks share nothing.
  static void parallelFor(std::size_t n, std::size_t threads,
                          const std::function<void(std::size_t)>& fn);

  std::size_t workerCount() const { return workers_.size(); }
  std::size_t queueCapacity() const { return options_.queueCapacity; }
  std::uint64_t tasksExecuted() const {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Tasks shed (never executed): admission rejects plus deadline-aware
  /// evictions.  tasksPosted == tasksExecuted + tasksShed at quiescence.
  std::uint64_t tasksShed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Tasks posted but not yet finished (queued + currently running).
  std::int64_t tasksInFlight() const {
    return inFlight_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point postedAt;  // only set when observed
    std::int64_t deadlineNanos = 0;                  // 0 = none
    std::function<void()> onShed;
  };
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stop = false;
    std::thread thread;
  };

  void workerLoop(Worker& worker);
  /// Finish shedding `task` after the worker lock is released: fix the
  /// in-flight count, bump counters, fire observer + onShed.
  void completeShed(Task task);

  LaneExecutorOptions options_;
  TaskObserver observer_;
  std::atomic<bool> observed_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> shed_{0};
  // drain() bookkeeping: tasks admitted but not yet finished.
  std::atomic<std::int64_t> inFlight_{0};
  std::mutex drainMutex_;
  std::condition_variable drainCv_;
};

}  // namespace edgesim
