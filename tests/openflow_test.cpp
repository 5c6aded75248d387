// Tests for the OpenFlow substrate: match semantics, action rewriting,
// flow-table priorities and timeouts, switch pipeline, packet buffering,
// and controller interaction (packet-in / flow-mod / packet-out /
// flow-removed) -- the §II "transparent access" mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "linear_flow_table.hpp"
#include "net/host.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/switch.hpp"
#include "sim/simulation.hpp"

namespace edgesim::openflow {
namespace {

using namespace timeliterals;

const Endpoint kClient{Ipv4(10, 0, 0, 1), 40000};
const Endpoint kService{Ipv4(203, 0, 113, 10), 80};   // registered cloud addr
const Endpoint kInstance{Ipv4(10, 0, 1, 5), 30080};   // edge instance

Packet clientSyn() { return makeSyn(Mac(0x01), kClient, kService); }

/// The ports a switch transmits on for `actions`, in list order.
std::vector<PortId> outputPorts(const ActionList& actions) {
  std::vector<PortId> ports;
  for (const auto& action : actions) {
    if (const auto* output = std::get_if<OutputAction>(&action)) {
      ports.push_back(output->port);
    }
  }
  return ports;
}

// ---------------------------------------------------------------- match ----

TEST(FlowMatch, WildcardsMatchEverything) {
  const FlowMatch any;
  EXPECT_TRUE(any.matches(clientSyn(), 3));
  EXPECT_EQ(any.specificity(), 0);
}

TEST(FlowMatch, FieldMismatchFails) {
  FlowMatch m = FlowMatch::clientToService(kClient, kService);
  EXPECT_TRUE(m.matches(clientSyn(), 0));
  Packet other = clientSyn();
  other.tcpSrc = 40001;
  EXPECT_FALSE(m.matches(other, 0));
  other = clientSyn();
  other.ipDst = Ipv4(203, 0, 113, 11);
  EXPECT_FALSE(m.matches(other, 0));
}

TEST(FlowMatch, InPortNarrowing) {
  FlowMatch m = FlowMatch::anyToService(kService);
  m.inPort = 2;
  EXPECT_TRUE(m.matches(clientSyn(), 2));
  EXPECT_FALSE(m.matches(clientSyn(), 3));
}

TEST(FlowMatch, ToStringListsFields) {
  const FlowMatch m = FlowMatch::clientToService(kClient, kService);
  const auto text = m.toString();
  EXPECT_NE(text.find("ip_dst=203.0.113.10"), std::string::npos);
  EXPECT_NE(text.find("tcp_dst=80"), std::string::npos);
}

// -------------------------------------------------------------- actions ----

TEST(Actions, SetFieldRewritesCopy) {
  const Packet original = clientSyn();
  const ActionList actions{
      SetFieldAction::ipDst(kInstance.ip),
      SetFieldAction::tcpDst(kInstance.port),
      SetFieldAction::ethDst(Mac(0xbeef)),
      OutputAction{4},
  };
  Packet rewritten = original;
  const bool toController = applyActions(rewritten, actions);
  EXPECT_EQ(rewritten.ipDst, kInstance.ip);
  EXPECT_EQ(rewritten.tcpDst, kInstance.port);
  EXPECT_EQ(rewritten.ethDst, Mac(0xbeef));
  EXPECT_EQ(outputPorts(actions), (std::vector<PortId>{4}));
  EXPECT_FALSE(toController);
  // Source packet untouched.
  EXPECT_EQ(original.ipDst, kService.ip);
}

TEST(Actions, ReverseRewriteRestoresServiceAddress) {
  // The edge instance answers from its real address; the switch rewrites the
  // source back to the registered service address (transparency, fig. 2).
  Packet reply = makeSynAck(Mac(0x05), kInstance, kClient);
  const ActionList actions{
      SetFieldAction::ipSrc(kService.ip),
      SetFieldAction::tcpSrc(kService.port),
      OutputAction{1},
  };
  applyActions(reply, actions);
  EXPECT_EQ(reply.srcEndpoint(), kService);
  EXPECT_EQ(reply.dstEndpoint(), kClient);
}

TEST(Actions, ToControllerFlag) {
  const ActionList actions{ToControllerAction{}};
  Packet packet = clientSyn();
  EXPECT_TRUE(applyActions(packet, actions));
  EXPECT_TRUE(outputPorts(actions).empty());
}

TEST(Actions, ToStringRendering) {
  const ActionList actions{SetFieldAction::tcpDst(8080), OutputAction{2},
                           ToControllerAction{}};
  EXPECT_EQ(actionsToString(actions), "set(tcp_dst=8080),output(2),controller");
}

// ----------------------------------------------------------- flow table ----

TEST(FlowTableTest, PriorityOrderWins) {
  FlowTable table;
  FlowEntry low;
  low.priority = 10;
  low.match = FlowMatch::anyToService(kService);
  low.actions = {OutputAction{1}};
  FlowEntry high;
  high.priority = 100;
  high.match = FlowMatch::clientToService(kClient, kService);
  high.actions = {OutputAction{2}};
  table.upsert(low, SimTime::zero());
  table.upsert(high, SimTime::zero());

  auto* hit = table.lookup(clientSyn(), 0, 1_ms);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 100);

  // A different client only matches the coarse rule.
  Packet other = clientSyn();
  other.ipSrc = Ipv4(10, 0, 0, 99);
  hit = table.lookup(other, 0, 1_ms);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 10);
}

TEST(FlowTableTest, EqualPriorityFirstInstalledWins) {
  FlowTable table;
  FlowEntry a;
  a.priority = 50;
  a.match = FlowMatch::anyToService(kService);
  a.actions = {OutputAction{1}};
  a.cookie = 1;
  FlowEntry b = a;
  b.match.inPort = 0;  // different match, same priority
  b.actions = {OutputAction{2}};
  b.cookie = 2;
  table.upsert(a, SimTime::zero());
  table.upsert(b, SimTime::zero());
  const auto* hit = table.peek(clientSyn(), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cookie, 1u);
}

TEST(FlowTableTest, UpsertReplacesSameMatchAndPriority) {
  FlowTable table;
  FlowEntry e;
  e.priority = 10;
  e.match = FlowMatch::anyToService(kService);
  e.actions = {OutputAction{1}};
  table.upsert(e, SimTime::zero());
  e.actions = {OutputAction{7}};
  table.upsert(e, 1_ms);
  EXPECT_EQ(table.size(), 1u);
  const auto* hit = table.peek(clientSyn(), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<OutputAction>(hit->actions[0]).port, 7u);
}

TEST(FlowTableTest, LookupUpdatesStatsPeekDoesNot) {
  FlowTable table;
  FlowEntry e;
  e.priority = 1;
  e.match = FlowMatch::anyToService(kService);
  table.upsert(e, SimTime::zero());
  table.peek(clientSyn(), 0);
  EXPECT_EQ(table.entries()[0].stats.packets, 0u);
  table.lookup(clientSyn(), 0, 5_ms);
  EXPECT_EQ(table.entries()[0].stats.packets, 1u);
  EXPECT_EQ(table.entries()[0].stats.lastUsed, 5_ms);
  EXPECT_EQ(table.entries()[0].stats.bytes, clientSyn().wireSize().value);
}

TEST(FlowTableTest, IdleTimeoutExpiresOnlyStaleEntries) {
  FlowTable table;
  std::vector<std::pair<std::uint64_t, RemovalReason>> removed;
  table.setRemovalListener(
      [&](const FlowEntry& entry, RemovalReason reason) {
        removed.emplace_back(entry.cookie, reason);
      });
  FlowEntry e;
  e.priority = 1;
  e.match = FlowMatch::anyToService(kService);
  e.idleTimeout = 10_s;
  e.cookie = 42;
  e.notifyOnRemoval = true;
  table.upsert(e, SimTime::zero());

  table.lookup(clientSyn(), 0, 5_s);  // refresh lastUsed
  table.expire(14_s);                 // idle for 9 s only
  EXPECT_EQ(table.size(), 1u);
  table.expire(15_s);                 // idle for exactly 10 s
  EXPECT_EQ(table.size(), 0u);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].first, 42u);
  EXPECT_EQ(removed[0].second, RemovalReason::kIdleTimeout);
}

TEST(FlowTableTest, HardTimeoutBeatsIdle) {
  FlowTable table;
  std::optional<RemovalReason> reason;
  table.setRemovalListener(
      [&](const FlowEntry&, RemovalReason r) { reason = r; });
  FlowEntry e;
  e.priority = 1;
  e.match = FlowMatch::anyToService(kService);
  e.idleTimeout = 60_s;
  e.hardTimeout = 5_s;
  e.notifyOnRemoval = true;
  table.upsert(e, SimTime::zero());
  table.lookup(clientSyn(), 0, 4_s);
  table.expire(5_s);
  EXPECT_EQ(table.size(), 0u);
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, RemovalReason::kHardTimeout);
}

TEST(FlowTableTest, NoNotificationWithoutFlag) {
  FlowTable table;
  int notifications = 0;
  table.setRemovalListener(
      [&](const FlowEntry&, RemovalReason) { ++notifications; });
  FlowEntry e;
  e.priority = 1;
  e.match = FlowMatch::anyToService(kService);
  e.idleTimeout = 1_s;
  e.notifyOnRemoval = false;
  table.upsert(e, SimTime::zero());
  table.expire(2_s);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(notifications, 0);
}

TEST(FlowTableTest, RemoveByMatchAndCookie) {
  FlowTable table;
  FlowEntry e;
  e.priority = 1;
  e.match = FlowMatch::anyToService(kService);
  e.cookie = 7;
  table.upsert(e, SimTime::zero());
  FlowEntry f;
  f.priority = 2;
  f.match = FlowMatch::clientToService(kClient, kService);
  f.cookie = 7;
  table.upsert(f, SimTime::zero());

  EXPECT_EQ(table.remove(FlowMatch::anyToService(kService), 99), 0u);
  EXPECT_EQ(table.remove(FlowMatch::anyToService(kService), 7), 1u);
  EXPECT_EQ(table.removeByCookie(7), 1u);
  EXPECT_EQ(table.size(), 0u);
}

// Property: for random entry sets, lookup always returns an entry with
// maximal priority among all matching entries.
class TablePriorityProperty : public ::testing::TestWithParam<int> {};

TEST_P(TablePriorityProperty, LookupReturnsMaxMatchingPriority) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  FlowTable table;
  for (int i = 0; i < 50; ++i) {
    FlowEntry e;
    e.priority = static_cast<std::uint16_t>(rng.uniformInt(0, 20));
    if (rng.chance(0.5)) e.match.ipDst = kService.ip;
    if (rng.chance(0.5)) e.match.tcpDst = kService.port;
    if (rng.chance(0.3)) e.match.ipSrc = Ipv4(10, 0, 0, static_cast<std::uint8_t>(rng.uniformInt(1, 3)));
    e.cookie = static_cast<std::uint64_t>(i);
    table.upsert(e, SimTime::zero());
  }
  Packet p = clientSyn();
  p.ipSrc = Ipv4(10, 0, 0, static_cast<std::uint8_t>(rng.uniformInt(1, 3)));
  const auto* hit = table.peek(p, 0);
  std::optional<std::uint16_t> best;
  for (const auto& entry : table.entries()) {
    if (entry.match.matches(p, 0)) {
      best = std::max(best.value_or(0), entry.priority);
    }
  }
  if (best.has_value()) {
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->priority, *best);
  } else {
    EXPECT_EQ(hit, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TablePriorityProperty, ::testing::Range(1, 26));

// Property: the indexed FlowTable behaves exactly like the original linear
// table (tests/linear_flow_table.hpp) under random operation sequences --
// same lookup results and stats, same entries() order, same FlowRemoved
// (entry, reason) sequence.  Field values come from small pools so matches,
// equal-priority ties and replace-in-place happen often.
class FlowTableOracleProperty : public ::testing::TestWithParam<int> {};

void expectSameEntry(const FlowEntry& a, const FlowEntry& b) {
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.idleTimeout, b.idleTimeout);
  EXPECT_EQ(a.hardTimeout, b.hardTimeout);
  EXPECT_EQ(a.cookie, b.cookie);
  EXPECT_EQ(a.notifyOnRemoval, b.notifyOnRemoval);
  EXPECT_EQ(a.stats.packets, b.stats.packets);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.created, b.stats.created);
  EXPECT_EQ(a.stats.lastUsed, b.stats.lastUsed);
}

TEST_P(FlowTableOracleProperty, IndexedTableMatchesLinearReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  const std::vector<Ipv4> ips{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                              Ipv4(10, 0, 1, 5), Ipv4(203, 0, 113, 10)};
  const std::vector<std::uint16_t> ports{80, 30080, 40000, 40001};
  const std::vector<std::uint16_t> priorities{1, 10, 50, 100, 100};

  const auto randomMatch = [&] {
    FlowMatch m;
    switch (rng.uniformInt(0, 4)) {
      case 0:  // background / unregistered destination
        m.ipDst = pick(ips);
        break;
      case 1:  // forward redirect
        m.ipSrc = pick(ips);
        m.ipDst = pick(ips);
        m.ipProto = IpProto::kTcp;
        m.tcpDst = pick(ports);
        break;
      case 2:  // reverse redirect
        m.ipSrc = pick(ips);
        m.tcpSrc = pick(ports);
        m.ipDst = pick(ips);
        m.ipProto = IpProto::kTcp;
        break;
      default:  // any other shape, including in_port
        if (rng.chance(0.4)) {
          m.inPort = static_cast<PortId>(rng.uniformInt(0, 2));
        }
        if (rng.chance(0.5)) m.ipSrc = pick(ips);
        if (rng.chance(0.5)) m.ipDst = pick(ips);
        if (rng.chance(0.3)) m.ipProto = IpProto::kTcp;
        if (rng.chance(0.4)) m.tcpSrc = pick(ports);
        if (rng.chance(0.4)) m.tcpDst = pick(ports);
        break;
    }
    return m;
  };
  const auto randomPacket = [&] {
    Packet p = makeSyn(Mac(0x01), Endpoint(pick(ips), pick(ports)),
                       Endpoint(pick(ips), pick(ports)));
    p.payloadBytes = Bytes{rng.uniformInt(0, 1400)};
    return p;
  };

  FlowTable indexed;
  reference::LinearFlowTable linear;
  using Removed = std::vector<std::pair<FlowEntry, RemovalReason>>;
  Removed indexedRemoved;
  Removed linearRemoved;
  const auto recorder = [](Removed& log) {
    return [&log](const FlowEntry& e, RemovalReason reason) {
      log.emplace_back(e, reason);
    };
  };
  indexed.setRemovalListener(recorder(indexedRemoved));
  linear.setRemovalListener(recorder(linearRemoved));

  std::vector<FlowEntry> installed;  // re-used for replaces and removes
  SimTime now = SimTime::zero();
  std::uint64_t nextCookie = 1;
  for (int step = 0; step < 600; ++step) {
    now = now + SimTime::millis(
                    static_cast<std::int64_t>(rng.uniformInt(0, 400)));
    const auto op = rng.uniformInt(0, 99);
    if (op < 40) {
      FlowEntry e;
      if (!installed.empty() && rng.chance(0.3)) {
        e = pick(installed);  // same match + priority: replace in place
      } else {
        e.priority = pick(priorities);
        e.match = randomMatch();
      }
      e.actions = {OutputAction{static_cast<PortId>(rng.uniformInt(0, 5))}};
      e.cookie = rng.chance(0.2) && !installed.empty() ? pick(installed).cookie
                                                       : nextCookie++;
      e.idleTimeout = SimTime::millis(static_cast<std::int64_t>(
          pick(std::vector<int>{0, 1000, 3000})));
      e.hardTimeout = SimTime::millis(static_cast<std::int64_t>(
          pick(std::vector<int>{0, 0, 5000})));
      e.notifyOnRemoval = rng.chance(0.8);
      installed.push_back(e);
      indexed.upsert(e, now);
      linear.upsert(e, now);
    } else if (op < 75) {
      const Packet p = randomPacket();
      const PortId inPort = static_cast<PortId>(rng.uniformInt(0, 2));
      const FlowEntry* a = indexed.lookup(p, inPort, now);
      const FlowEntry* b = linear.lookup(p, inPort, now);
      ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
      if (a != nullptr) expectSameEntry(*a, *b);
    } else if (op < 85 && !installed.empty()) {
      const FlowEntry& e = pick(installed);
      const std::uint64_t cookie = rng.chance(0.5) ? 0 : e.cookie;
      EXPECT_EQ(indexed.remove(e.match, cookie),
                linear.remove(e.match, cookie));
    } else if (op < 90 && !installed.empty()) {
      const std::uint64_t cookie = pick(installed).cookie;
      EXPECT_EQ(indexed.removeByCookie(cookie), linear.removeByCookie(cookie));
    } else if (op < 99) {
      indexed.expire(now);
      linear.expire(now);
    } else {
      indexed.clear();
      linear.clear();
    }

    ASSERT_EQ(indexed.size(), linear.size()) << "step " << step;
    const auto& got = indexed.entries();
    const auto& want = linear.entries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expectSameEntry(got[i], want[i]);
    }
    ASSERT_EQ(indexedRemoved.size(), linearRemoved.size()) << "step " << step;
    for (std::size_t i = 0; i < linearRemoved.size(); ++i) {
      expectSameEntry(indexedRemoved[i].first, linearRemoved[i].first);
      EXPECT_EQ(indexedRemoved[i].second, linearRemoved[i].second);
    }
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
  EXPECT_GT(indexedRemoved.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableOracleProperty,
                         ::testing::Range(1, 21));

// Property: activeSince(t) -- the recency-list walk behind the controller's
// flow-activity scan -- returns exactly the entries a full scan finds with
// stats.lastUsed >= t, newest first, under random lookups, upserts (also at
// times older than the last write), removes, expiries, clears and copies.
class FlowActivityOracleProperty : public ::testing::TestWithParam<int> {};

/// One entry's report as comparable text.
std::string activityKey(const FlowMatch& match, const FlowStats& stats) {
  return match.toString() + " packets=" + std::to_string(stats.packets) +
         " bytes=" + std::to_string(stats.bytes) +
         " created=" + std::to_string(stats.created.toNanos()) +
         " used=" + std::to_string(stats.lastUsed.toNanos());
}

TEST_P(FlowActivityOracleProperty, RecencyWalkMatchesFullScan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  const std::vector<Ipv4> ips{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                              Ipv4(203, 0, 113, 10)};
  const std::vector<std::uint16_t> ports{80, 30080, 40000};
  const auto randomMatch = [&] {
    FlowMatch m;
    m.ipSrc = pick(ips);
    m.ipDst = pick(ips);
    if (rng.chance(0.5)) m.tcpDst = pick(ports);
    return m;
  };

  FlowTable table;
  std::vector<FlowMatch> installed;
  SimTime now = SimTime::zero();
  std::size_t nonEmpty = 0;
  for (int step = 0; step < 800; ++step) {
    now = now + SimTime::millis(
                    static_cast<std::int64_t>(rng.uniformInt(0, 300)));
    const auto op = rng.uniformInt(0, 99);
    if (op < 35) {
      FlowEntry e;
      e.priority = pick(std::vector<std::uint16_t>{10, 100});
      e.match = !installed.empty() && rng.chance(0.3) ? pick(installed)
                                                      : randomMatch();
      e.idleTimeout = SimTime::millis(static_cast<std::int64_t>(
          pick(std::vector<int>{0, 2000, 6000})));
      installed.push_back(e.match);
      // Now and then at an older time, as a table rebuilt from a snapshot
      // is (each entry re-inserted at its own lastUsed).
      const SimTime at =
          rng.chance(0.1)
              ? SimTime::millis(static_cast<std::int64_t>(
                    rng.uniformInt(0, static_cast<std::uint64_t>(
                                          now.toMillis()))))
              : now;
      table.upsert(e, at);
    } else if (op < 75) {
      const Packet p = makeSyn(Mac(0x01), Endpoint(pick(ips), pick(ports)),
                               Endpoint(pick(ips), pick(ports)));
      table.lookup(p, 0, now);
    } else if (op < 85 && !installed.empty()) {
      table.remove(pick(installed));
    } else if (op < 95) {
      table.expire(now);
    } else if (op < 98) {
      const FlowTable copy = table;
      table = copy;
    } else {
      table.clear();
    }

    for (int probe = 0; probe < 3; ++probe) {
      const SimTime since = SimTime::millis(static_cast<std::int64_t>(
          rng.uniformInt(0, static_cast<std::uint64_t>(now.toMillis()))));
      std::vector<std::string> want;
      for (const FlowEntry& e : table.entries()) {
        if (e.stats.lastUsed >= since) {
          want.push_back(activityKey(e.match, e.stats));
        }
      }
      const std::vector<FlowActivity> active = table.activeSince(since);
      std::vector<std::string> got;
      for (std::size_t i = 0; i < active.size(); ++i) {
        got.push_back(activityKey(active[i].match, active[i].stats));
        if (i > 0) {
          EXPECT_GE(active[i - 1].stats.lastUsed, active[i].stats.lastUsed)
              << "not newest first at step " << step;
        }
      }
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "step " << step << " since "
                           << since.toSeconds();
      if (!got.empty()) ++nonEmpty;
    }
  }
  EXPECT_GT(nonEmpty, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowActivityOracleProperty,
                         ::testing::Range(1, 21));

TEST(FlowTableTest, CopyIsIndependent) {
  FlowTable table;
  FlowEntry e;
  e.priority = 100;
  e.match = FlowMatch::clientToService(kClient, kService);
  table.upsert(e, SimTime::zero());
  FlowTable copy = table;
  table.clear();
  ASSERT_NE(copy.lookup(clientSyn(), 0, 1_ms), nullptr);
  EXPECT_EQ(copy.entries()[0].stats.packets, 1u);
  EXPECT_EQ(table.peek(clientSyn(), 0), nullptr);
}

// ----------------------------------------------- switch + controller ----

/// Records packet-ins; installs nothing until told to.
class RecordingController : public ControllerApp {
 public:
  void onPacketIn(OpenFlowSwitch& sw, const PacketIn& event) override {
    packetIns.push_back(event);
    lastSwitch = &sw;
  }
  void onFlowRemoved(OpenFlowSwitch&, const FlowRemoved& event) override {
    flowRemovals.push_back(event);
  }

  std::vector<PacketIn> packetIns;
  std::vector<FlowRemoved> flowRemovals;
  OpenFlowSwitch* lastSwitch = nullptr;
};

class SwitchFixture : public ::testing::Test {
 protected:
  SwitchFixture()
      : sim_(21),
        net_(sim_),
        client_(net_, "client", kClient.ip, Mac(0x01)),
        edge_(net_, "edge", kInstance.ip, Mac(0x05)),
        cloud_(net_, "cloud", kService.ip, Mac(0x0c)),
        switch_(net_, "gnb") {
    clientPort_ = net_.connect(client_, switch_, 1_ms, 1_Gbps).portB;
    edgePort_ = net_.connect(switch_, edge_, 1_ms, 1_Gbps).portA;
    cloudPort_ = net_.connect(switch_, cloud_, 10_ms, 1_Gbps).portA;
    switch_.setController(&controller_);
  }

  /// Install the forward+reverse redirect flows for client->service.
  /// Matches are per client IP (not per ephemeral port): the client's
  /// source port is unknown until its SYN arrives.
  void installRedirect() {
    FlowEntry fwd;
    fwd.priority = 100;
    fwd.match = FlowMatch::anyToService(kService);
    fwd.match.ipSrc = kClient.ip;
    fwd.actions = {SetFieldAction::ipDst(kInstance.ip),
                   SetFieldAction::tcpDst(kInstance.port),
                   SetFieldAction::ethDst(edge_.mac()),
                   OutputAction{edgePort_}};
    FlowEntry rev;
    rev.priority = 100;
    rev.match.ipSrc = kInstance.ip;
    rev.match.tcpSrc = kInstance.port;
    rev.match.ipDst = kClient.ip;
    rev.match.ipProto = IpProto::kTcp;
    rev.actions = {SetFieldAction::ipSrc(kService.ip),
                   SetFieldAction::tcpSrc(kService.port),
                   SetFieldAction::ethSrc(Mac(0xcafe)),
                   OutputAction{clientPort_}};
    switch_.sendFlowMod(fwd);
    switch_.sendFlowMod(rev);
  }

  Simulation sim_;
  Network net_;
  Host client_;
  Host edge_;
  Host cloud_;
  RecordingController controller_;
  OpenFlowSwitch switch_;
  PortId clientPort_ = 0;
  PortId edgePort_ = 0;
  PortId cloudPort_ = 0;
};

TEST_F(SwitchFixture, TableMissBuffersAndNotifiesController) {
  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(kService, HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.runUntil(500_ms);
  ASSERT_EQ(controller_.packetIns.size(), 1u);
  EXPECT_EQ(controller_.packetIns[0].inPort, clientPort_);
  EXPECT_NE(controller_.packetIns[0].bufferId, kNoBuffer);
  EXPECT_TRUE(controller_.packetIns[0].packet.hasFlag(tcpflags::kSyn));
  EXPECT_EQ(switch_.bufferedPackets(), 1u);
  EXPECT_EQ(switch_.tableMissCount(), 1u);
  EXPECT_FALSE(got.has_value());  // still waiting
}

TEST_F(SwitchFixture, TransparentRedirectEndToEnd) {
  edge_.listen(kInstance.port, [](const HttpRequest&, HttpRespond respond) {
    HttpResponse resp;
    resp.body = "from-edge";
    respond(resp);
  });
  installRedirect();

  std::optional<Result<HttpExchange>> got;
  sim_.schedule(10_ms, [&] {  // after flows are installed
    client_.httpRequest(kService, HttpRequest{},
                        [&](Result<HttpExchange> r) { got = std::move(r); });
  });
  // The switch's expiry scanner runs forever; bound the run instead of
  // draining the queue.
  sim_.runUntil(5_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().response.body, "from-edge");
  // No packet ever reached the controller: flows matched everything.
  EXPECT_EQ(controller_.packetIns.size(), 0u);
  EXPECT_GE(switch_.matchedPackets(), 4u);
  // Client-perceived RTT is the edge RTT (≈4 ms), not the cloud path.
  EXPECT_LT(got->value().timings.timeTotal(), 10_ms);
}

TEST_F(SwitchFixture, PacketOutReleasesBufferedSyn) {
  edge_.listen(kInstance.port, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });

  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(kService, HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });

  // Controller behaviour scripted by the test: when the packet-in arrives,
  // install flows, then packet-out the buffered SYN through the new path.
  sim_.schedule(50_ms, [&] {
    ASSERT_EQ(controller_.packetIns.size(), 1u);
    const auto& event = controller_.packetIns[0];
    installRedirect();
    const ActionList actions{SetFieldAction::ipDst(kInstance.ip),
                             SetFieldAction::tcpDst(kInstance.port),
                             OutputAction{edgePort_}};
    switch_.sendPacketOut(event.bufferId, event.packet, actions);
  });
  sim_.runUntil(5_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(switch_.bufferedPackets(), 0u);
  // Total ~50 ms controller hold + handshake.
  EXPECT_GE(got->value().timings.timeTotal(), 50_ms);
  EXPECT_LT(got->value().timings.timeTotal(), 70_ms);
}

TEST_F(SwitchFixture, FlowRemovedNotificationOnIdle) {
  FlowEntry e;
  e.priority = 10;
  e.match = FlowMatch::anyToService(kService);
  e.actions = {OutputAction{cloudPort_}};
  e.idleTimeout = 2_s;
  e.notifyOnRemoval = true;
  e.cookie = 77;
  switch_.sendFlowMod(e);
  sim_.runUntil(5_s);
  ASSERT_EQ(controller_.flowRemovals.size(), 1u);
  EXPECT_EQ(controller_.flowRemovals[0].entry.cookie, 77u);
  EXPECT_EQ(controller_.flowRemovals[0].reason, RemovalReason::kIdleTimeout);
  EXPECT_EQ(switch_.table().size(), 0u);
}

TEST_F(SwitchFixture, FlowRemoveDeletesEntries) {
  FlowEntry e;
  e.priority = 10;
  e.match = FlowMatch::anyToService(kService);
  e.actions = {OutputAction{cloudPort_}};
  switch_.sendFlowMod(e);
  sim_.runUntil(10_ms);
  EXPECT_EQ(switch_.table().size(), 1u);
  switch_.sendFlowRemove(FlowMatch::anyToService(kService));
  sim_.runUntil(20_ms);
  EXPECT_EQ(switch_.table().size(), 0u);
}

TEST_F(SwitchFixture, StalePacketOutIsIgnored) {
  std::optional<Result<HttpExchange>> got;
  RequestOptions options;
  options.synRto = 10_s;  // keep quiet during the test window
  client_.httpRequest(kService, HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); },
                      options);
  sim_.runUntil(100_ms);
  ASSERT_EQ(controller_.packetIns.size(), 1u);
  const auto event = controller_.packetIns[0];
  // Release once, then try to release the same buffer again.
  const ActionList actions{OutputAction{cloudPort_}};
  switch_.sendPacketOut(event.bufferId, event.packet, actions);
  switch_.sendPacketOut(event.bufferId, event.packet, actions);
  sim_.runUntil(200_ms);
  // Exactly one copy of the SYN reached the cloud host: the cloud refuses
  // (no listener) once.  Its RST comes back table-miss and is buffered,
  // so exactly one packet (the RST) sits in the buffer afterwards.
  EXPECT_EQ(cloud_.refusedConnections(), 1u);
  EXPECT_EQ(switch_.bufferedPackets(), 1u);
  EXPECT_EQ(controller_.packetIns.size(), 2u);
}

TEST_F(SwitchFixture, BufferEvictionUnderPressure) {
  // Shrink the buffer via a dedicated switch to exercise FIFO eviction.
  SwitchOptions options;
  options.maxBufferedPackets = 2;
  OpenFlowSwitch tiny(net_, "tiny", options);
  RecordingController rec;
  Host a(net_, "a", Ipv4(10, 1, 0, 1), Mac(0x11));
  const PortId aPort = net_.connect(a, tiny, 1_ms, 1_Gbps).portB;
  (void)aPort;
  tiny.setController(&rec);
  for (int i = 0; i < 4; ++i) {
    const Endpoint src(a.ip(), static_cast<std::uint16_t>(50000 + i));
    net_.transmit(a, 0, makeSyn(a.mac(), src, kService));
  }
  sim_.runUntil(1_s);
  EXPECT_EQ(rec.packetIns.size(), 4u);
  EXPECT_EQ(tiny.bufferedPackets(), 2u);  // two oldest evicted
  // The loss is signalled, not silent: each FIFO eviction is counted.
  EXPECT_EQ(tiny.bufferEvictions(), 2u);
  // The untouched default-sized switch never evicted.
  EXPECT_EQ(switch_.bufferEvictions(), 0u);
}

// ------------------------------------------------- flow-stats timing ----

TEST_F(SwitchFixture, FlowStatsSnapshotTakenAtRequestArrival) {
  // The request and any FlowMods ride the same ordered control channel:
  // a FlowMod sent BEFORE the stats request is in the snapshot, one sent
  // AFTER it is not -- even though both land before the reply is delivered.
  FlowEntry before;
  before.priority = 10;
  before.match = FlowMatch::anyToService(kService);
  before.actions = {OutputAction{cloudPort_}};
  before.cookie = 1;
  switch_.sendFlowMod(before);

  std::optional<std::vector<FlowEntry>> snapshot;
  switch_.requestFlowStats(
      [&](const std::vector<FlowEntry>& entries) { snapshot = entries; });

  FlowEntry after = before;
  after.priority = 20;
  after.cookie = 2;
  switch_.sendFlowMod(after);

  sim_.runUntil(10_ms);
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->size(), 1u);
  EXPECT_EQ((*snapshot)[0].cookie, 1u);
  // Both entries did land on the switch.
  EXPECT_EQ(switch_.table().size(), 2u);
}

TEST_F(SwitchFixture, FlowStatsSnapshotSurvivesMutationBeforeDelivery) {
  // The snapshot is a point-in-time copy taken when the request reaches
  // the switch; deleting the entry before the reply lands must not
  // retroactively empty it.
  FlowEntry e;
  e.priority = 10;
  e.match = FlowMatch::anyToService(kService);
  e.actions = {OutputAction{cloudPort_}};
  e.cookie = 42;
  switch_.sendFlowMod(e);
  sim_.runUntil(10_ms);

  std::optional<std::vector<FlowEntry>> snapshot;
  SimTime deliveredAt;
  switch_.requestFlowStats([&](const std::vector<FlowEntry>& entries) {
    snapshot = entries;
    deliveredAt = sim_.now();
  });
  // The remove is sent one channel latency later: it reaches the switch
  // after the snapshot was taken but before the reply is delivered.
  sim_.schedule(switch_.options().channelLatency / 2,
                [&] { switch_.sendFlowRemove(FlowMatch::anyToService(kService)); });
  sim_.runUntil(20_ms);

  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->size(), 1u);
  EXPECT_EQ((*snapshot)[0].cookie, 42u);
  EXPECT_EQ(switch_.table().size(), 0u);  // the delete did happen
  // Reply paid the full round trip.
  EXPECT_GE(deliveredAt, 10_ms + switch_.options().channelLatency * 2);
}

// ------------------------------------------- flow-remove cookie match ----

TEST_F(SwitchFixture, FlowRemoveMatchesCookieExactly) {
  const FlowMatch match = FlowMatch::anyToService(kService);
  FlowEntry first;
  first.priority = 10;
  first.match = match;
  first.actions = {OutputAction{cloudPort_}};
  first.cookie = 7;
  FlowEntry second = first;
  second.priority = 20;  // distinct (match, priority) => both live
  second.cookie = 9;
  switch_.sendFlowMod(first);
  switch_.sendFlowMod(second);
  sim_.runUntil(10_ms);
  ASSERT_EQ(switch_.table().size(), 2u);

  // A mismatched cookie removes nothing.
  switch_.sendFlowRemove(match, 5);
  sim_.runUntil(20_ms);
  EXPECT_EQ(switch_.table().size(), 2u);

  // An exact cookie removes only its entry.
  switch_.sendFlowRemove(match, 9);
  sim_.runUntil(30_ms);
  ASSERT_EQ(switch_.table().size(), 1u);
  EXPECT_EQ(switch_.table().entries()[0].cookie, 7u);

  // Cookie 0 is the wildcard: removes regardless of cookie.
  switch_.sendFlowRemove(match, 0);
  sim_.runUntil(40_ms);
  EXPECT_EQ(switch_.table().size(), 0u);
}

}  // namespace
}  // namespace edgesim::openflow
