// Deterministic discrete-event simulation engine, partitioned into time
// domains (see sim/event_domain.hpp).
//
// A Simulation is a set of EventDomains sharing one logical experiment.  The
// default configuration has exactly ONE domain.  Partitioned setups call
// addDomain()/connectDomains() during construction; domains then advance
// either
//
//   * sequentially (run/runUntil/step): one loop, whatever the domain count,
//     executes the globally earliest live event across all domains -- a
//     canonical total order, used by determinism tests as the reference for
//     parallel runs; or
//   * in parallel (DomainScheduler::runParallel): each domain advances on a
//     LaneExecutor worker under the conservative lookahead rule.
//
// Ordinary components never name domains: schedule()/now()/rng() route to
// the ACTIVE domain -- the one dispatching the current event, or the
// DomainScope-selected domain during setup.  An event scheduled from inside
// a handler therefore stays in its component's domain automatically.
// Cross-domain posting is explicit (scheduleOn/scheduleOnAt) and pays at
// least the channel's lookahead latency.
//
// There is no cross-thread injection seam: other threads schedule nothing
// while a run is in flight.  A sequential run executes on the calling
// thread; a parallel run hands each domain to one worker at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_domain.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace edgesim {

class DomainScheduler;

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Clock of the active domain (single-domain: THE clock).
  SimTime now() const;
  /// RNG stream of the active domain (single-domain: the master stream).
  Rng& rng();

  /// Schedule `fn` in the active domain, `delay` after its now (delay >= 0).
  EventHandle schedule(SimTime delay, std::function<void()> fn);
  /// Schedule `fn` in the active domain at an absolute time (>= its now).
  EventHandle scheduleAt(SimTime when, std::function<void()> fn);

  // ---- time domains --------------------------------------------------------
  /// Create a new domain (setup phase only).  Its RNG stream is derived
  /// deterministically from the simulation seed and the domain id, so adding
  /// domains never perturbs the master stream.
  DomainId addDomain(const std::string& name);
  std::size_t domainCount() const { return domains_.size(); }
  EventDomain& domain(DomainId id) {
    ES_ASSERT(id < domains_.size());
    return *domains_[id];
  }
  /// Domain dispatching the current event on this thread, else the
  /// DomainScope-selected setup domain (default: the control domain).
  EventDomain& activeDomain();
  DomainId activeDomainId() { return activeDomain().id(); }

  /// Declare (or tighten) the bidirectional lookahead bound between two
  /// domains -- the minimum model latency any cross-domain event pays.
  /// Links crossing domains call this with their latency (setup phase only).
  /// `via` names the link for stall attribution (e.g. "edge-3<->edge-7");
  /// the tightest link owns the channel identity.
  void connectDomains(DomainId a, DomainId b, SimTime lookahead,
                      const std::string& via = {});
  /// Lookahead of the from->to channel; SimTime::max() when unconnected.
  SimTime domainLookahead(DomainId from, DomainId to) const;
  /// The from->to channel, nullptr when unconnected.  Observers use this to
  /// enumerate channel identities; the engine's own callers go through
  /// scheduleOn/scheduleOnAt.
  const DomainChannel* domainChannel(DomainId from, DomainId to) const {
    return channelBetween(from, to);
  }

  /// Attach (or detach, with nullptr) a DomainObserver: every domain's
  /// advance() slices, cross-domain sends, and the parallel driver's
  /// watchdog report through it.  Setup phase only -- never while a run is
  /// in flight.  Null observer (the default) keeps the engine on its
  /// zero-instrumentation path.
  void setDomainObserver(DomainObserver* observer);
  DomainObserver* domainObserver() const { return observer_; }

  /// Schedule `fn` on `target`, at least max(delay, channel lookahead) after
  /// the active domain's now.  Same-domain calls degrade to schedule().
  /// Cross-domain sends return an inert (non-cancellable) handle.
  EventHandle scheduleOn(DomainId target, SimTime delay,
                         std::function<void()> fn);
  /// Schedule `fn` on `target` at an absolute time.  Cross-domain, `when`
  /// must be >= the active domain's now + channel lookahead (parallel runs
  /// enforce this; it is what makes the conservative advance rule sound).
  EventHandle scheduleOnAt(DomainId target, SimTime when,
                           std::function<void()> fn);

  /// Route setup-phase schedule()/now()/rng() calls to a chosen domain for
  /// the scope's lifetime, so component constructors (stores, engines,
  /// kubelets, reconcile timers) land their events cluster-locally without
  /// threading DomainIds through every signature.  Setup only (asserts no
  /// event is dispatching); scopes nest.
  class DomainScope {
   public:
    DomainScope(Simulation& sim, DomainId id);
    ~DomainScope();
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    Simulation& sim_;
    DomainId saved_;
  };

  /// Run until every domain's queue drains or `stop()` is called, always
  /// executing the globally earliest live event next.
  void run();
  /// Run every live event due at or before `until`, earliest first; no
  /// event beyond `until` runs.  Afterwards every domain's now() == until,
  /// also when stop() ended the run early (due events it skipped stay
  /// queued).
  void runUntil(SimTime until);
  /// Execute the globally earliest live event, if any; returns false if no
  /// live event was queued.
  bool step();

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Queued keys over every domain's near and far heaps, cancelled keys
  /// included until they are popped (EventDomain::pendingEvents); this is
  /// the depth pathbench's steady-state heap guard compares.
  std::size_t pendingEvents() const;
  std::uint64_t processedEvents() const;

  /// "[t=...] " prefix for the logger (control-domain clock).
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
  friend class DomainScheduler;

  DomainChannel* channelBetween(DomainId from, DomainId to) const;
  void drainAllChannels();
  /// The one sequential loop body behind run/runUntil/step: admit channel
  /// messages, then run the globally earliest live event (across all
  /// domains) if it is due at or before `until`.  Returns whether an event
  /// ran.
  bool stepUntil(SimTime until);
  void beginParallel();
  void endParallel();
  bool parallelPhase() const {
    return parallel_.load(std::memory_order_relaxed);
  }

  std::uint64_t seed_;
  Rng rng_;  // master stream, aliased by domain 0
  std::vector<std::unique_ptr<EventDomain>> domains_;
  std::vector<std::unique_ptr<DomainChannel>> channels_;
  std::map<std::pair<DomainId, DomainId>, DomainChannel*> channelIndex_;
  DomainId setupDomain_ = kControlDomain;
  std::atomic<bool> parallel_{false};
  DomainObserver* observer_ = nullptr;  // setup-phase writes only
  bool stopped_ = false;
};

/// Periodic callback helper; fires every `period` until cancelled or the
/// callback returns false.  Safe to cancel or even destroy from within its
/// own tick callback (common when a tick tears down the owning object).
/// Ticks re-arm through Simulation::schedule, so a timer started while a
/// domain is active (via DomainScope or from one of its events) stays in
/// that domain.
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
