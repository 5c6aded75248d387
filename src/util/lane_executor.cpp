#include "util/lane_executor.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace edgesim {

LaneExecutor::LaneExecutor(std::size_t workers)
    : LaneExecutor(LaneExecutorOptions{workers, 0, ShedPolicy::kRejectNewest}) {
}

LaneExecutor::LaneExecutor(LaneExecutorOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
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

bool LaneExecutor::post(std::uint64_t lane, std::function<void()> fn) {
  return post(lane, std::move(fn), TaskMeta{});
}

bool LaneExecutor::post(std::uint64_t lane, std::function<void()> fn,
                        TaskMeta meta) {
  ES_ASSERT(fn != nullptr);
  Worker& worker = *workers_[lane % workers_.size()];
  inFlight_.fetch_add(1, std::memory_order_relaxed);
  Task task{std::move(fn), {}, meta.deadlineNanos, std::move(meta.onShed)};
  if (observed_.load(std::memory_order_relaxed)) {
    task.postedAt = std::chrono::steady_clock::now();
  }
  Task victim;       // the task being shed, moved out under the lock
  bool admitted = true;
  bool haveVictim = false;
  {
    std::lock_guard lock(worker.mutex);
    ES_ASSERT_MSG(!worker.stop, "post() after shutdown");
    if (options_.queueCapacity > 0 &&
        worker.queue.size() >= options_.queueCapacity) {
      if (options_.shedPolicy == ShedPolicy::kDeadlineAware) {
        // Evict the queued task with the nearest deadline -- but only when
        // it is strictly sooner than the incoming task's, and never a task
        // with no deadline (0 = can wait forever).
        auto earliest = worker.queue.end();
        for (auto it = worker.queue.begin(); it != worker.queue.end(); ++it) {
          if (it->deadlineNanos <= 0) continue;
          if (earliest == worker.queue.end() ||
              it->deadlineNanos < earliest->deadlineNanos) {
            earliest = it;
          }
        }
        if (earliest != worker.queue.end() &&
            (task.deadlineNanos <= 0 ||
             earliest->deadlineNanos < task.deadlineNanos)) {
          victim = std::move(*earliest);
          worker.queue.erase(earliest);
          worker.queue.push_back(std::move(task));
        } else {
          victim = std::move(task);
          admitted = false;
        }
      } else {
        victim = std::move(task);
        admitted = false;
      }
      haveVictim = true;
    } else {
      worker.queue.push_back(std::move(task));
    }
  }
  if (haveVictim) {
    completeShed(std::move(victim));
  }
  if (admitted) worker.cv.notify_one();
  return admitted;
}

void LaneExecutor::completeShed(Task task) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (observed_.load(std::memory_order_relaxed) &&
      observer_.onTaskShed != nullptr) {
    observer_.onTaskShed(inFlight_.load(std::memory_order_relaxed));
  }
  if (task.onShed != nullptr) task.onShed();
  if (inFlight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lock(drainMutex_);
    drainCv_.notify_all();
  }
}

void LaneExecutor::setTaskObserver(TaskObserver observer) {
  observer_ = std::move(observer);
  observed_.store(
      observer_.onTaskStart != nullptr || observer_.onTaskShed != nullptr,
      std::memory_order_relaxed);
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
    Task task;
    {
      std::unique_lock lock(worker.mutex);
      worker.cv.wait(lock,
                     [&worker] { return worker.stop || !worker.queue.empty(); });
      if (worker.queue.empty()) return;  // stop requested and drained
      task = std::move(worker.queue.front());
      worker.queue.pop_front();
    }
    if (observed_.load(std::memory_order_relaxed) &&
        observer_.onTaskStart != nullptr &&
        task.postedAt != std::chrono::steady_clock::time_point{}) {
      observer_.onTaskStart(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        task.postedAt)
              .count(),
          inFlight_.load(std::memory_order_relaxed));
    }
    task.fn();
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
