// The work queue the K8s controllers share: name-ordered entries, a
// `queued` flag and a batch id per entry, one event per batch
// (DESIGN.md §16.2, §16.7).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "k8s/api_server.hpp"

namespace edgesim::k8s {

/// One controller's queue of object names to reconcile, `latency` after
/// they were queued.  Each entry holds a `queued` flag, the id of the batch
/// that queued it and the controller's `Record` for that name (its memo and
/// cached lookups).  Entries are kept in name order and never erased, so a
/// record and a pointer to it live as long as the queue.
///
/// enqueue() queues one name (a watch event); enqueueAll() queues every
/// object of the queue's store not already queued (a resync, or the
/// Endpoints fan-out).  Either way a name already queued is left where it
/// is, and the one event scheduled never carries a name.  enqueueAll's
/// event carries the batch id and reconciles the entries still queued
/// under it in name order, clearing each one's flag first; enqueue's
/// carries its one entry.
///
/// One batch event runs the same reconciles in the same order as one event
/// per name would.  Those events would share one timestamp and take
/// consecutive sequence numbers, and a reconcile changes no store state
/// itself -- it schedules API writes for later -- so nothing could run
/// between them.
template <typename T, typename Record>
class ReconcileQueue {
 public:
  using Reconcile = std::function<void(const std::string& name, Record&)>;

  /// `latency` is read at each enqueue: it refers into the controller's
  /// ControlPlaneParams.
  ReconcileQueue(Simulation& sim, const Store<T>& store,
                 const SimTime& latency, Reconcile reconcile)
      : sim_(sim),
        store_(store),
        latency_(latency),
        reconcile_(std::move(reconcile)) {}

  // Scheduled events hold `this` and iterators into the entries.
  ReconcileQueue(const ReconcileQueue&) = delete;
  ReconcileQueue& operator=(const ReconcileQueue&) = delete;

  /// Queue `name` alone, unless it already is queued.  Until the event
  /// runs, the entry stays queued under its own batch id, which no other
  /// batch takes, so the event finds it still queued.
  void enqueue(const std::string& name) {
    const auto entry = entries_.try_emplace(name).first;
    if (!mark(entry->second, ++lastBatch_)) return;
    sim_.schedule(latency_, [this, entry] {
      entry->second.queued = false;
      reconcile_(entry->first, entry->second.record);
    });
  }

  /// Queue every object of the store that is not already queued, as one
  /// batch event (none when every one of them already is).
  void enqueueAll() {
    const std::uint64_t batch = ++lastBatch_;
    bool any = false;
    for (Entry* entry : members()) any |= mark(*entry, batch);
    if (!any) return;
    sim_.schedule(latency_, [this, batch] { runBatch(batch); });
  }

 private:
  struct Entry {
    bool queued = false;
    std::uint64_t batch = 0;
    Record record;
  };

  /// Mark `entry` queued under `batch`; false when it already was queued.
  static bool mark(Entry& entry, std::uint64_t batch) {
    if (entry.queued) return false;  // already pending
    entry.queued = true;
    entry.batch = batch;
    return true;
  }

  /// The entries of the store's objects, in name order.  Rebuilt only when
  /// the store's membership moved: one merged walk of the store and the
  /// entries, both in name order, finds or adds each object's entry.
  const std::vector<Entry*>& members() {
    if (membersSeen_ == store_.membershipVersion()) return members_;
    members_.clear();
    auto entry = entries_.begin();
    store_.forEach([&](const T& object) {
      const std::string& name = object.meta.name;
      while (entry != entries_.end() && entry->first < name) ++entry;
      if (entry == entries_.end() || entry->first != name) {
        entry = entries_.emplace_hint(entry, name, Entry{});
      }
      members_.push_back(&entry->second);
    });
    membersSeen_ = store_.membershipVersion();
    return members_;
  }

  /// Reconcile, in name order, the entries still queued under `batch`.
  void runBatch(std::uint64_t batch) {
    for (auto& [name, entry] : entries_) {
      if (!entry.queued || entry.batch != batch) continue;
      entry.queued = false;
      reconcile_(name, entry.record);
    }
  }

  Simulation& sim_;
  const Store<T>& store_;
  const SimTime& latency_;
  Reconcile reconcile_;
  std::map<std::string, Entry> entries_;
  std::vector<Entry*> members_;
  std::uint64_t membersSeen_ = kNeverLooked;
  std::uint64_t lastBatch_ = 0;
};

}  // namespace edgesim::k8s
