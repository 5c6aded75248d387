// Parallel driver for a multi-domain Simulation.
//
// runParallel(pool, until) advances every EventDomain to `until`
// concurrently on LaneExecutor workers, barrier-free: a domain's advance
// task re-posts itself while local work remains and re-posts its DOWNSTREAM
// domains whenever it makes progress (their channel bounds just moved).
// Lane = domain id, so one domain never advances on two workers at once
// (the LaneExecutor's per-lane mutual exclusion is the only lock the
// advance loop needs) and a domain tends to stick to one worker's cache.
//
// The coordinating thread is a watchdog, not a barrier: it periodically
// re-posts every non-idle domain, which makes termination independent of
// wake-up edge cases (a progress notification racing a task that already
// observed an older bound).  All channel lookaheads are strictly positive,
// so the conservative advance rule cannot deadlock: the globally earliest
// pending event is always below every bound that gates it.
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace edgesim {

class LaneExecutor;

class DomainScheduler {
 public:
  explicit DomainScheduler(Simulation& sim) : sim_(sim) {}

  DomainScheduler(const DomainScheduler&) = delete;
  DomainScheduler& operator=(const DomainScheduler&) = delete;

  /// Advance every domain to `until` on `pool` workers.  Blocks until all
  /// domains are quiescent at the horizon; afterwards every domain's clock
  /// reads `until`, matching Simulation::runUntil's end state.  Single-
  /// domain simulations run Simulation::runUntil instead.
  /// Caller must be outside any event dispatch.
  void runParallel(LaneExecutor& pool, SimTime until);

  /// Wake/task accounting of the most recent runParallel() call (always on
  /// -- a handful of relaxed counters).  `watchdogWakes` counts ADMITTED
  /// watchdog re-posts (the queued flags collapse the rest) and splits into
  /// productive (the slice dispatched events or moved the clock -- i.e. the
  /// notification edge really was lost) and redundant (nothing to do; the
  /// safety net spun).  A lost-wakeup regression shows up as productive
  /// wakes growing with run size; redundant wakes are bounded by passes x
  /// domains.
  struct RunStats {
    std::uint64_t advanceTasks = 0;      // advance slices executed
    std::uint64_t notifyWakes = 0;       // admitted progress-notification posts
    std::uint64_t watchdogPasses = 0;    // coordinator sweeps over all domains
    std::uint64_t watchdogWakes = 0;     // admitted watchdog posts
    std::uint64_t watchdogProductive = 0;
    std::uint64_t watchdogRedundant = 0;
  };
  RunStats lastRunStats() const {
    RunStats stats;
    stats.advanceTasks = advanceTasks_.load(std::memory_order_relaxed);
    stats.notifyWakes = notifyWakes_.load(std::memory_order_relaxed);
    stats.watchdogPasses = watchdogPasses_.load(std::memory_order_relaxed);
    stats.watchdogWakes = watchdogWakes_.load(std::memory_order_relaxed);
    stats.watchdogProductive =
        watchdogProductive_.load(std::memory_order_relaxed);
    stats.watchdogRedundant =
        watchdogRedundant_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  Simulation& sim_;
  std::atomic<std::uint64_t> advanceTasks_{0};
  std::atomic<std::uint64_t> notifyWakes_{0};
  std::atomic<std::uint64_t> watchdogPasses_{0};
  std::atomic<std::uint64_t> watchdogWakes_{0};
  std::atomic<std::uint64_t> watchdogProductive_{0};
  std::atomic<std::uint64_t> watchdogRedundant_{0};
};

}  // namespace edgesim
