#include "sim/domain_scheduler.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/domain_observer.hpp"
#include "util/lane_executor.hpp"

namespace edgesim {

void DomainScheduler::runParallel(LaneExecutor& pool, SimTime until) {
  const std::size_t domainCount = sim_.domainCount();
  advanceTasks_.store(0, std::memory_order_relaxed);
  notifyWakes_.store(0, std::memory_order_relaxed);
  watchdogPasses_.store(0, std::memory_order_relaxed);
  watchdogWakes_.store(0, std::memory_order_relaxed);
  watchdogProductive_.store(0, std::memory_order_relaxed);
  watchdogRedundant_.store(0, std::memory_order_relaxed);
  if (domainCount <= 1) {
    sim_.runUntil(until);
    return;
  }
  DomainObserver* const observer = sim_.domainObserver();
  sim_.beginParallel();

  // One queued-flag per domain: collapses redundant re-posts so a domain has
  // at most one advance task pending at any time (plus at most one running,
  // serialized by its lane).
  struct DomainState {
    std::atomic<bool> queued{false};
  };
  std::vector<std::unique_ptr<DomainState>> states;
  states.reserve(domainCount);
  for (std::size_t i = 0; i < domainCount; ++i) {
    states.push_back(std::make_unique<DomainState>());
  }

  std::mutex doneMutex;
  std::condition_variable doneCv;

  // Recursive: advance tasks re-post themselves and their downstream
  // domains.  Safe to capture by reference -- pool.drain() below guarantees
  // every task (and everything tasks post transitively) finishes before
  // these locals go out of scope.  `fromWatchdog` tags the task so its
  // outcome can be classified productive vs redundant -- the lost-wakeup
  // detector the domain-scaling test bounds.
  std::function<void(DomainId, bool)> enqueue = [&](DomainId id,
                                                    bool fromWatchdog) {
    if (states[id]->queued.exchange(true, std::memory_order_acq_rel)) return;
    (fromWatchdog ? watchdogWakes_ : notifyWakes_)
        .fetch_add(1, std::memory_order_relaxed);
    pool.post(id, [this, &states, &enqueue, &doneCv, id, until, fromWatchdog,
                   observer] {
      states[id]->queued.store(false, std::memory_order_release);
      advanceTasks_.fetch_add(1, std::memory_order_relaxed);
      EventDomain& domain = sim_.domain(id);
      const SimTime clockBefore = domain.now();
      const std::size_t dispatched = domain.advance(until);
      const bool productive = dispatched > 0 || domain.now() > clockBefore;
      if (fromWatchdog) {
        (productive ? watchdogProductive_ : watchdogRedundant_)
            .fetch_add(1, std::memory_order_relaxed);
        if (observer != nullptr) observer->onWatchdogWake(id, productive);
      }
      if (productive) {
        // Progress moved this domain's commit clock: downstream bounds grew,
        // so their domains may be able to advance further.
        for (const DomainChannel* channel : domain.outbound()) {
          enqueue(channel->to().id(), false);
        }
      }
      // No self-repost: advance() only returns once no further progress is
      // possible under the CURRENT bounds, so spinning on ourselves would
      // burn the pool.  The next wake arrives from an upstream domain's
      // progress (the loop above, run by ITS task) or from the watchdog.
      doneCv.notify_one();
    });
  };

  const auto allIdle = [&] {
    for (DomainId id = 0; id < domainCount; ++id) {
      EventDomain& domain = sim_.domain(id);
      if (!domain.idleAtHorizon()) return false;
      for (const DomainChannel* channel : domain.inbound()) {
        if (!channel->empty()) return false;
      }
    }
    return true;
  };

  for (DomainId id = 0; id < domainCount; ++id) enqueue(id, false);
  {
    std::unique_lock lock(doneMutex);
    while (!allIdle()) {
      doneCv.wait_for(lock, std::chrono::milliseconds(2));
      // Watchdog: wake anything not yet at the horizon.  Redundant posts
      // are collapsed by the queued flags; an idle domain whose inbound
      // channel is non-empty gets re-posted to drain it.
      watchdogPasses_.fetch_add(1, std::memory_order_relaxed);
      if (observer != nullptr) observer->onWatchdogPass();
      for (DomainId id = 0; id < domainCount; ++id) {
        EventDomain& domain = sim_.domain(id);
        bool inboundPending = false;
        for (const DomainChannel* channel : domain.inbound()) {
          inboundPending = inboundPending || !channel->empty();
        }
        if (!domain.idleAtHorizon() || inboundPending) {
          enqueue(id, true);
        }
      }
    }
  }
  // In-flight tasks may still be running (an idle recheck, a final
  // notification); let them finish before the captured locals die.
  pool.drain();
  sim_.endParallel();
  for (DomainId id = 0; id < domainCount; ++id) sim_.domain(id).finishAt(until);
}

}  // namespace edgesim
