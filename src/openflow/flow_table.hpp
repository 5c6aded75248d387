// OpenFlow flow table: priority-ordered entries with idle/hard timeouts and
// per-flow statistics.
//
// The paper's §V design keeps switch-side idle timeouts *short* (entries can
// be re-installed cheaply from the controller's FlowMemory), so expiry is a
// first-class behaviour here, complete with flow-removed notifications.
//
// Lookup is a tuple-space classifier (the Open vSwitch design): entries are
// grouped by WHICH match fields they set, and each group hashes its entries
// on the values of those fields.  A lookup probes each non-empty group once,
// so its cost grows with the number of distinct match shapes -- four for the
// controller's rules -- not with the number of entries.  Table order is
// (priority descending, first install ascending); a replace keeps the
// original install sequence, exactly like an in-place overwrite in a sorted
// list.
//
// Activity: every write of an entry's stats.lastUsed (a lookup hit, an
// upsert) moves its slot to the front of a recency list, linked by slot
// index so the table keeps value semantics.  The list stays ordered by
// lastUsed, newest first, so activeSince(t) walks from the front and stops
// at the first entry used before t: it costs the entries that moved, not
// the table.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "openflow/action.hpp"
#include "openflow/match.hpp"
#include "sim/time.hpp"

namespace edgesim::openflow {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  SimTime created;
  SimTime lastUsed;
};

struct FlowEntry {
  std::uint16_t priority = 0;
  FlowMatch match;
  ActionList actions;
  SimTime idleTimeout = SimTime::zero();  // zero => never idles out
  SimTime hardTimeout = SimTime::zero();  // zero => never expires
  std::uint64_t cookie = 0;
  bool notifyOnRemoval = false;
  FlowStats stats;
};

/// One entry's traffic report: what an activity scan needs of an entry (no
/// actions, no timeouts).
struct FlowActivity {
  FlowMatch match;
  FlowStats stats;
};

enum class RemovalReason { kIdleTimeout, kHardTimeout, kDelete };

const char* removalReasonName(RemovalReason reason);

class FlowTable {
 public:
  using RemovalListener =
      std::function<void(const FlowEntry&, RemovalReason)>;

  /// Insert or replace (same match + priority replaces, per OpenFlow
  /// OFPFC_ADD semantics).  A replaced entry keeps its table position.
  void upsert(FlowEntry entry, SimTime now);

  /// Remove all entries matching `match` exactly (and `cookie` if nonzero).
  /// Fires the removal listener with reason kDelete.
  std::size_t remove(const FlowMatch& match, std::uint64_t cookie = 0);

  /// Remove every entry with this cookie.
  std::size_t removeByCookie(std::uint64_t cookie);

  /// Highest-priority matching entry (earliest install among equal
  /// priorities), updating its stats; nullptr on miss.  The pointer is valid
  /// until the next mutation.
  FlowEntry* lookup(const Packet& packet, PortId inPort, SimTime now);

  /// Same as lookup but without stats side effects (diagnostics).
  const FlowEntry* peek(const Packet& packet, PortId inPort) const;

  /// Expire entries whose idle/hard timeout elapsed at `now`.
  void expire(SimTime now);

  /// Wipe every entry WITHOUT firing removal notifications: models a switch
  /// crash/restart, where pending FlowRemoved messages die with the switch
  /// (the controller must reconcile to discover the loss).
  void clear();

  void setRemovalListener(RemovalListener listener) {
    removalListener_ = std::move(listener);
  }

  std::size_t size() const { return size_; }

  /// A copy of every entry in table order (priority descending, then
  /// install order).
  std::vector<FlowEntry> snapshot() const;

  /// The same, cached: rebuilt on first use after a change (lookups count,
  /// they bump stats); the reference stays valid until the table next
  /// changes.
  const std::vector<FlowEntry>& entries() const;

  /// (match, stats) of every entry with stats.lastUsed >= since, most
  /// recently used first.
  std::vector<FlowActivity> activeSince(SimTime since) const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffff;

  /// Values of the fields a group matches on; unset fields stay zero.
  struct Key {
    std::uint64_t addrs = 0;  // ip_src << 32 | ip_dst
    std::uint64_t ports = 0;  // in_port << 32 | tcp_src << 16 | tcp_dst
    std::uint8_t proto = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  /// All entries setting exactly the fields in `mask`.  Each bucket holds
  /// the head of a list of slots (linked through Slot::next) sharing one
  /// key -- same match, different priorities -- in table order.
  struct Group {
    std::uint8_t mask = 0;
    std::uint16_t maxPriority = 0;  // upper bound while the group is live
    std::size_t size = 0;
    std::unordered_map<Key, std::uint32_t, KeyHash> buckets;
  };

  struct Slot {
    FlowEntry entry;
    std::uint64_t seq = 0;  // install order; kept across replaces
    std::uint32_t next = kNone;
    // Recency list neighbours: `newer` toward the front, `older` toward
    // the back.
    std::uint32_t newer = kNone;
    std::uint32_t older = kNone;
    bool used = false;
  };

  static std::uint8_t maskOf(const FlowMatch& match);
  static Key makeKey(std::uint8_t mask, PortId inPort, Ipv4 ipSrc, Ipv4 ipDst,
                     IpProto ipProto, std::uint16_t tcpSrc,
                     std::uint16_t tcpDst);
  static Key keyOf(const FlowMatch& match);
  static Key keyOf(const Packet& packet, PortId inPort, std::uint8_t mask);

  /// True when slot `a` precedes slot `b` in table order.
  bool before(std::uint32_t a, std::uint32_t b) const;
  /// Slot of the first entry matching `packet` in table order, kNone on miss.
  std::uint32_t find(const Packet& packet, PortId inPort) const;
  /// Index of the group with this mask; groups_.size() when there is none.
  std::size_t groupIndex(std::uint8_t mask) const;

  struct Removal {
    std::uint32_t id;
    RemovalReason reason;
  };
  /// Notify and erase each doomed slot in table order (notification first,
  /// as the listener reads the entry); returns how many went.
  std::size_t removeSlots(std::vector<Removal> doomed);
  void eraseSlot(std::uint32_t id);
  /// Set slot `id`'s stats.lastUsed to `now` and move it to its place in
  /// the recency list: the front, unless `now` is older than the front
  /// entry's (callers outside a simulation may pass any time).
  void markUsed(std::uint32_t id, SimTime now);
  void unlinkRecency(std::uint32_t id);
  void notifyRemoval(const FlowEntry& entry, RemovalReason reason);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> freeSlots_;
  std::vector<Group> groups_;  // by maxPriority descending
  std::size_t size_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint32_t newest_ = kNone;  // recency list front
  RemovalListener removalListener_;
  mutable std::vector<FlowEntry> snapshot_;
  mutable bool snapshotValid_ = true;
};

}  // namespace edgesim::openflow
