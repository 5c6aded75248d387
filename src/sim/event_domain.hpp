// The simulation's event queue: closures ordered by (timestamp, sequence).
//
// An EventDomain owns the queue, the clock and the sequence counter of one
// Simulation; events execute in (timestamp, sequence) order, so events
// scheduled for the same instant run in scheduling order.  Everything runs
// on the thread that drives the Simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace edgesim {

/// Closures and liveness of the queued events, without an
/// allocation per event beyond the closure's own.  Every queued event holds
/// one slot from the moment it is scheduled until it leaves the queue
/// (dispatched, or skipped because it was cancelled); the slot parks the
/// event's closure meanwhile, so the heap itself orders only small keys.
/// Leaving bumps the slot's generation before the slot is reused, so a
/// handle naming an older generation can neither cancel nor observe the
/// slot's next occupant.  Owned by its EventDomain.
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
/// the queue's slot table).
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

  EventDomain() = default;

  EventDomain(const EventDomain&) = delete;
  EventDomain& operator=(const EventDomain&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` `delay` after now.
  EventHandle schedule(SimTime delay, std::function<void()> fn);
  /// Schedule `fn` at an absolute time (>= now).
  EventHandle scheduleAt(SimTime when, std::function<void()> fn);

  /// Earliest LIVE event time (prunes cancelled front entries); max() when
  /// none.  Inline: the Simulation's loop calls it once per event.
  SimTime nextEventTime() {
    while (const Key* key = front()) {
      if (slots_->live(key->slot)) return key->when;
      std::function<void()> cancelled;  // prune the cancelled front entry
      slots_->release(popKey().slot, cancelled);
    }
    return SimTime::max();
  }

  /// Lift the clock to at least `when` (end-of-run normalisation: after
  /// runUntil(until), now() == until).
  void finishAt(SimTime when) {
    if (now_ < when) now_ = when;
  }

  /// Queued keys in both heaps -- cancelled keys included, until they are
  /// popped -- / dispatched-event count.  pathbench's steady-state heap
  /// guard depends on the queued count including the dead timers.
  std::size_t pendingEvents() const { return queueSize_; }
  std::uint64_t processedEvents() const { return processed_; }

 private:
  friend class Simulation;

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

  SimTime now_ = SimTime::zero();
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t queueSize_ = 0;
  // Binary min-heaps under KeyAfter, split at kNearHorizon.
  std::vector<Key> near_;
  std::vector<Key> far_;
  std::shared_ptr<EventSlots> slots_ = std::make_shared<EventSlots>();
};

}  // namespace edgesim
