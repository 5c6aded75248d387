#include "openflow/flow_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace edgesim::openflow {

namespace {
// One bit per match field: a group's mask says which fields its entries set.
constexpr std::uint8_t kInPort = 1 << 0;
constexpr std::uint8_t kIpSrc = 1 << 1;
constexpr std::uint8_t kIpDst = 1 << 2;
constexpr std::uint8_t kIpProto = 1 << 3;
constexpr std::uint8_t kTcpSrc = 1 << 4;
constexpr std::uint8_t kTcpDst = 1 << 5;
}  // namespace

const char* removalReasonName(RemovalReason reason) {
  switch (reason) {
    case RemovalReason::kIdleTimeout: return "idle-timeout";
    case RemovalReason::kHardTimeout: return "hard-timeout";
    case RemovalReason::kDelete: return "delete";
  }
  return "?";
}

std::size_t FlowTable::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = key.addrs * 0x9e3779b97f4a7c15ULL;
  h ^= (key.ports ^ (std::uint64_t{key.proto} << 56)) * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

std::uint8_t FlowTable::maskOf(const FlowMatch& match) {
  std::uint8_t mask = 0;
  if (match.inPort) mask |= kInPort;
  if (match.ipSrc) mask |= kIpSrc;
  if (match.ipDst) mask |= kIpDst;
  if (match.ipProto) mask |= kIpProto;
  if (match.tcpSrc) mask |= kTcpSrc;
  if (match.tcpDst) mask |= kTcpDst;
  return mask;
}

FlowTable::Key FlowTable::makeKey(std::uint8_t mask, PortId inPort,
                                  Ipv4 ipSrc, Ipv4 ipDst, IpProto ipProto,
                                  std::uint16_t tcpSrc,
                                  std::uint16_t tcpDst) {
  const auto pick = [mask](std::uint8_t bit, std::uint64_t value) {
    return (mask & bit) != 0 ? value : 0;
  };
  Key key;
  key.addrs = pick(kIpSrc, ipSrc.value) << 32 | pick(kIpDst, ipDst.value);
  key.ports = pick(kInPort, inPort) << 32 | pick(kTcpSrc, tcpSrc) << 16 |
              pick(kTcpDst, tcpDst);
  key.proto = static_cast<std::uint8_t>(
      pick(kIpProto, static_cast<std::uint8_t>(ipProto)));
  return key;
}

FlowTable::Key FlowTable::keyOf(const FlowMatch& match) {
  return makeKey(maskOf(match), match.inPort.value_or(0),
                 match.ipSrc.value_or(Ipv4{}), match.ipDst.value_or(Ipv4{}),
                 match.ipProto.value_or(IpProto{}), match.tcpSrc.value_or(0),
                 match.tcpDst.value_or(0));
}

FlowTable::Key FlowTable::keyOf(const Packet& packet, PortId inPort,
                                std::uint8_t mask) {
  return makeKey(mask, inPort, packet.ipSrc, packet.ipDst, packet.ipProto,
                 packet.tcpSrc, packet.tcpDst);
}

bool FlowTable::before(std::uint32_t a, std::uint32_t b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (x.entry.priority != y.entry.priority) {
    return x.entry.priority > y.entry.priority;
  }
  return x.seq < y.seq;
}

std::size_t FlowTable::groupIndex(std::uint8_t mask) const {
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].mask == mask) return i;
  }
  return groups_.size();
}

void FlowTable::upsert(FlowEntry entry, SimTime now) {
  entry.stats.created = now;
  entry.stats.lastUsed = now;
  snapshotValid_ = false;
  const std::uint8_t mask = maskOf(entry.match);
  std::size_t g = groupIndex(mask);
  if (g == groups_.size()) groups_.push_back(Group{mask, 0, 0, {}});
  Group* group = &groups_[g];
  // Every slot in a bucket carries the same match, so the priority alone
  // tells a replace from a new entry.
  const auto bucket =
      group->buckets.try_emplace(keyOf(entry.match), kNone).first;
  for (std::uint32_t id = bucket->second; id != kNone; id = slots_[id].next) {
    if (slots_[id].entry.priority == entry.priority) {
      // Replace in place: the install sequence, hence the position, stays.
      slots_[id].entry = std::move(entry);
      markUsed(id, now);
      return;
    }
  }

  std::uint32_t id;
  if (freeSlots_.empty()) {
    id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    id = freeSlots_.back();
    freeSlots_.pop_back();
  }
  Slot& slot = slots_[id];
  slot.entry = std::move(entry);
  slot.seq = nextSeq_++;
  slot.used = true;
  // Newest install: it goes after every entry of equal or higher priority.
  std::uint32_t* link = &bucket->second;
  while (*link != kNone && !before(id, *link)) link = &slots_[*link].next;
  slot.next = *link;
  *link = id;
  markUsed(id, now);
  ++group->size;
  ++size_;
  if (slot.entry.priority > group->maxPriority) {
    group->maxPriority = slot.entry.priority;
    // A bound only ever grows, so moving this group forward keeps groups_
    // ordered by it.
    for (; g > 0 && groups_[g - 1].maxPriority < groups_[g].maxPriority; --g) {
      std::swap(groups_[g - 1], groups_[g]);
    }
  }
}

std::uint32_t FlowTable::find(const Packet& packet, PortId inPort) const {
  std::uint32_t best = kNone;
  for (const auto& group : groups_) {
    if (group.size == 0) continue;
    // Groups are ordered by their priority bound: once it drops below the
    // best hit, no later group can win.
    if (best != kNone && group.maxPriority < slots_[best].entry.priority) {
      break;
    }
    const auto it = group.buckets.find(keyOf(packet, inPort, group.mask));
    if (it == group.buckets.end()) continue;
    if (best == kNone || before(it->second, best)) best = it->second;
  }
  return best;
}

FlowEntry* FlowTable::lookup(const Packet& packet, PortId inPort,
                             SimTime now) {
  const std::uint32_t id = find(packet, inPort);
  if (id == kNone) return nullptr;
  snapshotValid_ = false;
  FlowEntry& entry = slots_[id].entry;
  ++entry.stats.packets;
  entry.stats.bytes += packet.wireSize().value;
  markUsed(id, now);
  return &entry;
}

const FlowEntry* FlowTable::peek(const Packet& packet, PortId inPort) const {
  const std::uint32_t id = find(packet, inPort);
  return id == kNone ? nullptr : &slots_[id].entry;
}

std::size_t FlowTable::remove(const FlowMatch& match, std::uint64_t cookie) {
  const std::size_t g = groupIndex(maskOf(match));
  if (g == groups_.size()) return 0;
  const auto& buckets = groups_[g].buckets;
  const auto bucket = buckets.find(keyOf(match));
  if (bucket == buckets.end()) return 0;
  std::vector<Removal> doomed;
  for (std::uint32_t id = bucket->second; id != kNone; id = slots_[id].next) {
    if (cookie == 0 || slots_[id].entry.cookie == cookie) {
      doomed.push_back({id, RemovalReason::kDelete});
    }
  }
  return removeSlots(std::move(doomed));
}

std::size_t FlowTable::removeByCookie(std::uint64_t cookie) {
  std::vector<Removal> doomed;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].used && slots_[id].entry.cookie == cookie) {
      doomed.push_back({id, RemovalReason::kDelete});
    }
  }
  return removeSlots(std::move(doomed));
}

void FlowTable::expire(SimTime now) {
  std::vector<Removal> doomed;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (!slots_[id].used) continue;
    const FlowEntry& e = slots_[id].entry;
    if (e.hardTimeout > SimTime::zero() &&
        now - e.stats.created >= e.hardTimeout) {
      doomed.push_back({id, RemovalReason::kHardTimeout});
    } else if (e.idleTimeout > SimTime::zero() &&
               now - e.stats.lastUsed >= e.idleTimeout) {
      doomed.push_back({id, RemovalReason::kIdleTimeout});
    }
  }
  removeSlots(std::move(doomed));
}

std::size_t FlowTable::removeSlots(std::vector<Removal> doomed) {
  if (doomed.empty()) return 0;
  std::sort(doomed.begin(), doomed.end(),
            [this](const Removal& a, const Removal& b) {
              return before(a.id, b.id);
            });
  snapshotValid_ = false;
  for (const Removal& removal : doomed) {
    notifyRemoval(slots_[removal.id].entry, removal.reason);
    eraseSlot(removal.id);
  }
  return doomed.size();
}

void FlowTable::eraseSlot(std::uint32_t id) {
  Slot& slot = slots_[id];
  ES_ASSERT(slot.used);
  const std::size_t g = groupIndex(maskOf(slot.entry.match));
  ES_ASSERT(g < groups_.size());
  Group* group = &groups_[g];
  const auto bucket = group->buckets.find(keyOf(slot.entry.match));
  ES_ASSERT(bucket != group->buckets.end());
  std::uint32_t* link = &bucket->second;
  while (*link != id) {
    ES_ASSERT(*link != kNone);
    link = &slots_[*link].next;
  }
  *link = slot.next;
  if (bucket->second == kNone) group->buckets.erase(bucket);
  --group->size;
  --size_;
  unlinkRecency(id);
  slot = Slot{};
  freeSlots_.push_back(id);
}

void FlowTable::clear() {
  slots_.clear();
  freeSlots_.clear();
  groups_.clear();
  size_ = 0;
  newest_ = kNone;
  snapshotValid_ = false;
}

void FlowTable::markUsed(std::uint32_t id, SimTime now) {
  slots_[id].entry.stats.lastUsed = now;
  unlinkRecency(id);
  // Skip the entries used after `now`: none while time only moves forward.
  std::uint32_t newer = kNone;
  std::uint32_t older = newest_;
  while (older != kNone && slots_[older].entry.stats.lastUsed > now) {
    newer = older;
    older = slots_[older].older;
  }
  Slot& slot = slots_[id];
  slot.newer = newer;
  slot.older = older;
  (newer == kNone ? newest_ : slots_[newer].older) = id;
  if (older != kNone) slots_[older].newer = id;
}

void FlowTable::unlinkRecency(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.newer == kNone && newest_ != id) return;  // not linked yet
  (slot.newer == kNone ? newest_ : slots_[slot.newer].older) = slot.older;
  if (slot.older != kNone) slots_[slot.older].newer = slot.newer;
  slot.newer = kNone;
  slot.older = kNone;
}

std::vector<FlowEntry> FlowTable::snapshot() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(size_);
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].used) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(),
            [this](std::uint32_t a, std::uint32_t b) { return before(a, b); });
  std::vector<FlowEntry> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) out.push_back(slots_[id].entry);
  return out;
}

const std::vector<FlowEntry>& FlowTable::entries() const {
  if (!snapshotValid_) {
    snapshot_ = snapshot();
    snapshotValid_ = true;
  }
  return snapshot_;
}

std::vector<FlowActivity> FlowTable::activeSince(SimTime since) const {
  std::vector<FlowActivity> out;
  for (std::uint32_t id = newest_;
       id != kNone && slots_[id].entry.stats.lastUsed >= since;
       id = slots_[id].older) {
    out.push_back({slots_[id].entry.match, slots_[id].entry.stats});
  }
  return out;
}

void FlowTable::notifyRemoval(const FlowEntry& entry, RemovalReason reason) {
  if (entry.notifyOnRemoval && removalListener_) {
    removalListener_(entry, reason);
  }
}

}  // namespace edgesim::openflow
