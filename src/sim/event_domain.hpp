// Time domains: the unit of parallelism in the discrete-event core.
//
// An EventDomain is one independently-advancing slice of the simulation: it
// owns its OWN priority queue, clock, sequence counter, and RNG stream.  A
// Simulation always has at least domain 0 (the control domain); partitioned
// setups add one domain per cluster/region and wire DomainChannels between
// them.  Events within a domain execute in (timestamp, sequence) order.
//
// Cross-domain events travel through latency-stamped DomainChannels.  Each
// channel declares a LOOKAHEAD bound L > 0 (in the network partition this is
// the inter-cluster link latency): the sender guarantees that a message
// pushed while its clock reads t is stamped no earlier than t + L.  The
// receiver may therefore safely execute every local event strictly earlier
// than
//
//     min over inbound channels of (sender clock + channel lookahead)
//
// -- the classic conservative (null-message) advance rule, with the sender
// clock published through a shared atomic instead of explicit null messages.
// Equal-timestamp events within one domain keep deterministic order; ties
// BETWEEN domains arriving over different channels have unspecified relative
// order in parallel runs (use the sequential driver, Simulation::run/
// runUntil/step, for a canonical order; workloads keep outcomes
// order-independent).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace edgesim {

class Simulation;
class EventDomain;
class DomainChannel;
class DomainObserver;

/// Identifies one time domain within a Simulation.  Domain 0 always exists
/// and hosts the control plane (controller, dispatcher, switch) plus
/// everything that never opted into a partition.
using DomainId = std::uint32_t;
inline constexpr DomainId kControlDomain = 0;

/// Closures and liveness of one domain's queued events, without an
/// allocation per event beyond the closure's own.  Every queued event holds
/// one slot from the moment it is scheduled until it leaves the queue
/// (dispatched, or skipped because it was cancelled); the slot parks the
/// event's closure meanwhile, so the heap itself orders only small keys.
/// Leaving bumps the slot's generation before the slot is reused, so a
/// handle naming an older generation can neither cancel nor observe the
/// slot's next occupant.  Owned by its EventDomain; only the domain's own
/// thread may touch it (handles are cancelled where their events run).
class EventSlots {
 public:
  /// Take a free slot for a newly queued event (live, current generation)
  /// and park its closure there.
  std::uint32_t acquire(std::function<void()> fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    return slot;
  }
  /// The event left the queue: move its closure into the empty `fn`, retire
  /// this generation and free the slot.  Returns whether the event was
  /// still live (not cancelled).  The closure leaves the table first, so
  /// whatever the caller then does with it -- run it, or destroy it -- may
  /// schedule events (growing the table) and reuse the slot.
  bool release(std::uint32_t slot, std::function<void()>& fn) {
    Slot& s = slots_[slot];
    fn.swap(s.fn);
    const bool wasLive = s.live;
    s.live = false;
    ++s.generation;
    free_.push_back(slot);
    return wasLive;
  }
  std::uint32_t generation(std::uint32_t slot) const {
    return slots_[slot].generation;
  }
  bool live(std::uint32_t slot) const { return slots_[slot].live; }
  bool pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].live;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation) {
    if (pending(slot, generation)) slots_[slot].live = false;
  }

 private:
  struct Slot {
    std::function<void()> fn;  // parked while queued, empty when free
    std::uint32_t generation = 0;
    bool live = false;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

/// Handle for cancelling a scheduled event.  Cheap to copy; cancelling an
/// already-fired or already-cancelled event is a no-op, and so is any use
/// after the owning Simulation is gone (the handle only weakly references
/// its domain's slot table).  Cross-domain deliveries return an inert
/// handle: their slot would live in another thread's table, so they cannot
/// be cancelled once sent.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() {
    if (const auto slots = slots_.lock()) slots->cancel(slot_, generation_);
  }
  bool pending() const {
    const auto slots = slots_.lock();
    return slots && slots->pending(slot_, generation_);
  }

 private:
  friend class EventDomain;
  EventHandle(std::weak_ptr<EventSlots> slots, std::uint32_t slot,
              std::uint32_t generation)
      : slots_(std::move(slots)), slot_(slot), generation_(generation) {}
  std::weak_ptr<EventSlots> slots_;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// One direction of cross-domain delivery.  The sender (any phase, any
/// thread owning the `from` domain) pushes latency-stamped closures; the
/// receiver drains them into its local queue from its own advancing thread.
///
/// Safety protocol (see EventDomain::advance): the receiver reads
/// `safeBound()` BEFORE draining.  Any message pushed after the drain was
/// sent at a sender clock >= the bound that was read, so its stamp is >=
/// bound and cannot be missed by processing strictly below the bound.
class DomainChannel {
 public:
  DomainChannel(EventDomain& from, EventDomain& to, SimTime lookahead,
                std::string via = {});

  DomainChannel(const DomainChannel&) = delete;
  DomainChannel& operator=(const DomainChannel&) = delete;

  EventDomain& from() const { return from_; }
  EventDomain& to() const { return to_; }
  /// Identity of the link whose latency set the current (tightest) lookahead
  /// -- e.g. "edge-3<->edge-7" for a network link -- for stall attribution.
  /// Empty when the channel was declared without one.  Setup phase writes,
  /// observers read after setup.
  const std::string& via() const { return via_; }

  SimTime lookahead() const {
    return SimTime::nanos(lookaheadNanos_.load(std::memory_order_relaxed));
  }
  /// Lower the lookahead bound (multiple links between the same domain pair
  /// keep the tightest latency); a non-empty `via` that tightens the bound
  /// takes over the channel's identity.  Setup phase only.
  void tighten(SimTime lookahead, const std::string& via = {});

  /// Approximate number of undelivered messages (relaxed; exact at
  /// quiescence).  Safe from any thread -- feeds the inbox-depth gauge.
  std::size_t pendingCount() const {
    return pendingCount_.load(std::memory_order_relaxed);
  }

  /// Sender side: enqueue a closure for delivery at absolute time `when`
  /// (>= sender clock + lookahead; asserted by the caller, who knows the
  /// sender clock).  Thread-safe.
  void push(SimTime when, std::function<void()> fn);

  /// Receiver side: sender clock + lookahead -- no future message can be
  /// stamped earlier than this.
  SimTime safeBound() const;

  bool empty() const { return !nonEmpty_.load(std::memory_order_acquire); }

  /// Receiver side: move pending messages into `target`'s local queue
  /// (stamped at their delivery time, ordered by (when, push sequence)).
  /// Returns the number of messages admitted.
  std::size_t drainInto(EventDomain& target);

 private:
  struct Message {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  EventDomain& from_;
  EventDomain& to_;
  std::atomic<std::int64_t> lookaheadNanos_;
  std::string via_;  // setup-phase writes only
  mutable std::mutex mutex_;
  std::vector<Message> pending_;
  std::uint64_t nextSeq_ = 0;  // guarded by mutex_
  std::atomic<bool> nonEmpty_{false};
  std::atomic<std::size_t> pendingCount_{0};
};

class EventDomain {
 public:
  /// Keys due less than this long after now() at schedule time go to the
  /// near heap, the rest to the far heap.  1 s is TCP's initial SYN RTO
  /// (RequestOptions::synRto): packet deliveries, handler delays and
  /// retransmits stay near, while the long protocol timers -- above all the
  /// 120 s TCP total timers, nearly all cancelled before they fall due --
  /// go far, so the near heap that every packet event touches stays a few
  /// keys deep.
  static constexpr SimTime kNearHorizon = SimTime::seconds(1);

  /// `sharedRng` non-null aliases an external stream (domain 0 shares the
  /// Simulation's master RNG); otherwise the domain owns an `rngSeed` fork.
  EventDomain(Simulation& sim, DomainId id, std::string name, Rng* sharedRng,
              std::uint64_t rngSeed);

  EventDomain(const EventDomain&) = delete;
  EventDomain& operator=(const EventDomain&) = delete;

  Simulation& sim() const { return sim_; }
  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }

  SimTime now() const { return now_; }
  /// Thread-safe clock read (acquire): the commit clock other domains use
  /// to compute channel bounds, published on every event dispatch.
  std::int64_t nowNanosAtomic() const {
    return nowNanos_.load(std::memory_order_acquire);
  }
  /// Per-domain RNG stream (forked deterministically from the simulation
  /// seed at addDomain time); domain 0 shares the Simulation's master RNG.
  Rng& rng() { return *rng_; }

  /// Schedule `fn` in THIS domain, `delay` after this domain's now.
  EventHandle schedule(SimTime delay, std::function<void()> fn);
  /// Schedule `fn` in THIS domain at an absolute time (>= this domain's now).
  EventHandle scheduleAt(SimTime when, std::function<void()> fn);

  /// Earliest LIVE event time (prunes cancelled front entries); max() when
  /// none.  Owning thread only (mutates the queue).  Inline: the sequential
  /// driver calls it once per event.
  SimTime nextEventTime() {
    while (const Key* key = front()) {
      if (slots_->live(key->slot)) return key->when;
      std::function<void()> cancelled;  // prune the cancelled front entry
      slots_->release(popKey().slot, cancelled);
    }
    return SimTime::max();
  }

  /// Conservative advance toward `horizon` (parallel driver): repeatedly
  /// [read channel bounds -> drain channels -> run every local event with
  /// when <= horizon and when < bound -> lift the clock to min(horizon,
  /// bound)] until no further progress is possible right now.  Returns the
  /// number of events dispatched.  Must be called by exactly one thread at
  /// a time (the LaneExecutor lane provides that).
  std::size_t advance(SimTime horizon);

  /// Published by advance(): true when the domain reached `horizon` with no
  /// live local event left at or before it.  Cleared at the start of every
  /// advance call; safe to poll from the coordinating thread.
  bool idleAtHorizon() const {
    return idleAtHorizon_.load(std::memory_order_acquire);
  }

  /// Lift the clock to at least `when` (end-of-run normalisation: after
  /// runUntil(until) or runParallel(.., until), now() == until).
  void finishAt(SimTime when) {
    if (now_ < when) setNow(when);
  }

  /// Queued keys in both heaps -- cancelled keys included, until they are
  /// popped -- / dispatched-event count.  pathbench's steady-state heap
  /// guard depends on the queued count including the dead timers.  Relaxed
  /// atomics: exact on the owning thread, a moment-in-time approximation
  /// from any other (feeds the heap-depth gauge polled at snapshot time).
  std::size_t pendingEvents() const {
    return queueSize_.load(std::memory_order_relaxed);
  }
  std::uint64_t processedEvents() const {
    return processed_.load(std::memory_order_relaxed);
  }

  const std::vector<DomainChannel*>& inbound() const { return inbound_; }
  const std::vector<DomainChannel*>& outbound() const { return outbound_; }

  /// The domain currently dispatching an event on THIS thread (nullptr
  /// outside event execution).  Routes Simulation::schedule()/now() so that
  /// events a component schedules from inside its own handlers stay in the
  /// component's domain -- k8s reconcile loops, Docker engine operations,
  /// and link deliveries are domain-local without any call-site changes.
  static EventDomain* current();

 private:
  friend class Simulation;
  friend class DomainChannel;

  /// One heap entry: trivially copyable, so sifting moves 24 bytes and
  /// never a closure (that stays parked in `slot`).  (when, seq) is a
  /// total order -- seq is unique -- so dispatch order does not depend on
  /// the heap's layout.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  // held until the event leaves the queue
  };
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);
  struct KeyAfter {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;  // min-heap
      return a.seq > b.seq;
    }
  };

  /// The queue's earliest key: the smaller of the two heap fronts under
  /// KeyAfter, or nullptr when both heaps are empty.
  const Key* front() const {
    const Key* near = near_.empty() ? nullptr : &near_.front();
    if (far_.empty()) return near;
    const Key* far = &far_.front();
    return near != nullptr && KeyAfter{}(*far, *near) ? near : far;
  }
  /// Remove the queue's earliest key (its slot is still held).
  Key popKey();
  /// Pop the earliest event and free its slot, then run it if it was live.
  /// Returns whether it ran.
  bool runFront();
  void setNow(SimTime when) {
    now_ = when;
    nowNanos_.store(when.toNanos(), std::memory_order_release);
  }
  void addInbound(DomainChannel* channel) { inbound_.push_back(channel); }
  void addOutbound(DomainChannel* channel) { outbound_.push_back(channel); }

  Simulation& sim_;
  DomainId id_;
  std::string name_;
  SimTime now_ = SimTime::zero();
  std::atomic<std::int64_t> nowNanos_{0};  // commit clock
  std::uint64_t nextSeq_ = 0;
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::size_t> queueSize_{0};
  /// Set by Simulation::setDomainObserver (setup phase only); advance()
  /// reports slices through it.  Null = zero-instrumentation fast path.
  DomainObserver* observer_ = nullptr;
  /// Domain 0 aliases the Simulation's master RNG; others own a fork.
  Rng* rng_ = nullptr;
  std::unique_ptr<Rng> ownedRng_;
  // Binary min-heaps under KeyAfter, split at kNearHorizon.
  std::vector<Key> near_;
  std::vector<Key> far_;
  std::shared_ptr<EventSlots> slots_ = std::make_shared<EventSlots>();
  std::vector<DomainChannel*> inbound_;
  std::vector<DomainChannel*> outbound_;
  std::atomic<bool> idleAtHorizon_{false};
};

}  // namespace edgesim
