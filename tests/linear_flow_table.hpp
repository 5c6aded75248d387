// Reference flow table for the FlowTable property test: the original linear
// implementation (a vector kept sorted by descending priority, scanned front
// to back), kept here as the oracle the indexed table must agree with.  Not
// used by the simulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "openflow/flow_table.hpp"

namespace edgesim::openflow::reference {

class LinearFlowTable {
 public:
  void upsert(FlowEntry entry, SimTime now) {
    entry.stats.created = now;
    entry.stats.lastUsed = now;
    for (auto& existing : entries_) {
      if (existing.priority == entry.priority &&
          existing.match == entry.match) {
        existing = std::move(entry);  // in place: position kept
        return;
      }
    }
    // Before the first lower-priority entry: earlier installs win ties.
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(),
        [&entry](const FlowEntry& e) { return e.priority < entry.priority; });
    entries_.insert(pos, std::move(entry));
  }

  std::size_t remove(const FlowMatch& match, std::uint64_t cookie = 0) {
    return eraseIf([&](const FlowEntry& e) {
      return e.match == match && (cookie == 0 || e.cookie == cookie);
    });
  }

  std::size_t removeByCookie(std::uint64_t cookie) {
    return eraseIf([&](const FlowEntry& e) { return e.cookie == cookie; });
  }

  FlowEntry* lookup(const Packet& packet, PortId inPort, SimTime now) {
    for (auto& entry : entries_) {
      if (entry.match.matches(packet, inPort)) {
        ++entry.stats.packets;
        entry.stats.bytes += packet.wireSize().value;
        entry.stats.lastUsed = now;
        return &entry;
      }
    }
    return nullptr;
  }

  void expire(SimTime now) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->hardTimeout > SimTime::zero() &&
          now - it->stats.created >= it->hardTimeout) {
        notify(*it, RemovalReason::kHardTimeout);
        it = entries_.erase(it);
      } else if (it->idleTimeout > SimTime::zero() &&
                 now - it->stats.lastUsed >= it->idleTimeout) {
        notify(*it, RemovalReason::kIdleTimeout);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void clear() { entries_.clear(); }

  void setRemovalListener(FlowTable::RemovalListener listener) {
    listener_ = std::move(listener);
  }

  std::size_t size() const { return entries_.size(); }
  const std::vector<FlowEntry>& entries() const { return entries_; }

 private:
  template <typename Pred>
  std::size_t eraseIf(Pred pred) {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(*it)) {
        notify(*it, RemovalReason::kDelete);
        it = entries_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  void notify(const FlowEntry& entry, RemovalReason reason) {
    if (entry.notifyOnRemoval && listener_) listener_(entry, reason);
  }

  std::vector<FlowEntry> entries_;
  FlowTable::RemovalListener listener_;
};

}  // namespace edgesim::openflow::reference
