// Deterministic discrete-event simulation engine: one event queue (see
// sim/event_domain.hpp), one clock and one master RNG stream per experiment.
//
// Everything runs on the thread that drives the Simulation: run/runUntil/
// step execute the earliest live event next, and handlers schedule further
// events through schedule()/scheduleAt().  Other threads schedule nothing
// while a run is in flight; sweeps that want several cores run several
// Simulations side by side (util/parallel_for.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/event_domain.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace edgesim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return queue_.now(); }
  /// The master RNG stream.
  Rng& rng() { return rng_; }

  /// Schedule `fn` `delay` after now (delay >= 0).
  EventHandle schedule(SimTime delay, std::function<void()> fn) {
    return queue_.schedule(delay, std::move(fn));
  }
  /// Schedule `fn` at an absolute time (>= now).
  EventHandle scheduleAt(SimTime when, std::function<void()> fn) {
    return queue_.scheduleAt(when, std::move(fn));
  }

  /// Run until the queue drains or `stop()` is called, always executing
  /// the earliest live event next.
  void run();
  /// Run every live event due at or before `until`, earliest first; no
  /// event beyond `until` runs.  Afterwards now() == until, also when
  /// stop() ended the run early (due events it skipped stay queued).
  void runUntil(SimTime until);
  /// Execute the earliest live event, if any; returns false if no live
  /// event was queued.
  bool step();

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Queued keys over the near and far heaps, cancelled keys included
  /// until they are popped (EventDomain::pendingEvents); this is the depth
  /// pathbench's steady-state heap guard compares.
  std::size_t pendingEvents() const { return queue_.pendingEvents(); }
  std::uint64_t processedEvents() const { return queue_.processedEvents(); }

  /// "[t=...] " prefix for the logger.
  std::string timePrefix() const;

  /// Route the global logger's time prefix to this simulation for the
  /// object's lifetime (used by tests/benches for readable traces).
  class LogScope {
   public:
    explicit LogScope(Simulation& sim);
    ~LogScope();
    LogScope(const LogScope&) = delete;
    LogScope& operator=(const LogScope&) = delete;
  };

 private:
  /// The one loop body behind run/runUntil/step: run the earliest live
  /// event if it is due at or before `until`.  Returns whether an event
  /// ran.
  bool stepUntil(SimTime until);

  Rng rng_;
  EventDomain queue_;
  bool stopped_ = false;
};

/// Periodic callback helper; fires every `period` until cancelled or the
/// callback returns false.  Safe to cancel or even destroy from within its
/// own tick callback (common when a tick tears down the owning object).
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// `tick` returns true to continue, false to stop.
  void start(Simulation& sim, SimTime period, std::function<bool()> tick,
             SimTime initialDelay = SimTime::zero());
  void cancel();
  bool running() const { return running_; }

 private:
  void arm(Simulation& sim, SimTime delay);

  SimTime period_;
  std::function<bool()> tick_;
  EventHandle handle_;
  bool running_ = false;
  /// Liveness token shared with in-flight events; flipped on cancel and
  /// destruction so a stale event never touches this object.
  std::shared_ptr<bool> alive_;
};

}  // namespace edgesim
