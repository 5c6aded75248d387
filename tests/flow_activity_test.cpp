// FlowMemory expiry driven by the controller's periodic flow-activity scan
// (DESIGN.md §8 "Expiry & scale-down"): the expiry time of a memorized flow
// follows from the switch entry's last traffic and the 1 s scan grid, also
// when the memorized flow was recreated while its switch entry survived and
// when the control channel loses one scan's reply.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/testbed.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

// The memory scan runs every memoryScanPeriod (1 s) from t = 1 s; its
// expiry step runs once the stats reply is back, one control-channel round
// trip (2 x 200 us) after the request.
constexpr SimTime kScanRoundTrip = 400_us;

/// The first scan whose expiry step finds a flow last seen at `lastSeen`
/// idle for at least `idle`.
SimTime expectedExpiry(SimTime lastSeen, SimTime idle) {
  for (std::int64_t k = 1;; ++k) {
    const SimTime at = SimTime::seconds(1.0) * k + kScanRoundTrip;
    if (at - lastSeen >= idle) return at;
  }
}

/// lastUsed of `client`'s forward redirect entry on the switch, nullopt
/// when the entry is gone.
std::optional<SimTime> forwardLastUsed(Testbed& bed, Ipv4 client) {
  for (const auto& entry : bed.ovs().table().entries()) {
    if (entry.match.ipSrc == client && entry.match.ipDst == kNginxAddr.ip &&
        entry.match.tcpDst == kNginxAddr.port) {
      return entry.stats.lastUsed;
    }
  }
  return std::nullopt;
}

/// A Docker-only testbed whose switch entries outlive the memorized flows
/// (60 s switch idle timeout against 3 s in FlowMemory) and whose instance
/// is never scaled down, so traffic keeps flowing through the switch entry
/// after the memorized flow expired.
TestbedOptions longSwitchEntries() {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 3_s;
  options.controller.switchIdleTimeout = 60_s;
  options.controller.scaleDownIdleServices = false;
  return options;
}

/// Runs `bed` to just before and to `at`, expecting the memorized flow of
/// `client` to be present before and gone at `at`.
void expectExpiresAt(Testbed& bed, Ipv4 client, SimTime at) {
  bed.sim().runUntil(at - 1_us);
  EXPECT_TRUE(bed.controller().flowMemory().lookup(client, kNginxAddr))
      << "expired before " << at.toSeconds() << " s";
  bed.sim().runUntil(at);
  EXPECT_FALSE(bed.controller().flowMemory().lookup(client, kNginxAddr))
      << "still memorized at " << at.toSeconds() << " s";
}

TEST(FlowActivityScan, RecreatedMemoryEntryExpiresOnTheScanGrid) {
  Testbed bed(longSwitchEntries());
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  const Ipv4 client = bed.client(0).ip();
  FlowMemory& memory = bed.controller().flowMemory();

  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(2_s);
  const auto first = memory.lookup(client, kNginxAddr);
  ASSERT_TRUE(first.has_value());
  const auto firstTraffic = forwardLastUsed(bed, client);
  ASSERT_TRUE(firstTraffic.has_value());
  const SimTime expiredAt =
      expectedExpiry(std::max(first->lastSeen, *firstTraffic), 3_s);
  expectExpiresAt(bed, client, expiredAt);
  ASSERT_TRUE(forwardLastUsed(bed, client).has_value())
      << "the switch entry must survive the memorized flow";

  // Recreate the memorized flow (as a resolve does) while the switch entry
  // survives, then send traffic through that entry: no packet-in, so only
  // the activity scan can carry the traffic into FlowMemory.
  const SimTime recreatedAt = expiredAt + 500_ms;
  bed.sim().scheduleAt(recreatedAt, [&] {
    memory.upsert(client, kNginxAddr, first->instance, first->cluster,
                  bed.sim().now());
  });
  bed.sim().scheduleAt(recreatedAt + 1_s, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  });
  const std::uint64_t packetIns = bed.ovs().packetInCount();
  bed.sim().runUntil(recreatedAt + 2_s);
  EXPECT_EQ(bed.ovs().packetInCount(), packetIns);
  const auto touched = forwardLastUsed(bed, client);
  ASSERT_TRUE(touched.has_value());
  ASSERT_GT(*touched, recreatedAt + 1_s);
  expectExpiresAt(bed, client, expectedExpiry(*touched, 3_s));
}

TEST(FlowActivityScan, LostReplyLosesNoTraffic) {
  Testbed bed(longSwitchEntries());
  // Every control message dies between 3.0001 s and 3.0003 s: the 3 s
  // scan's request (sent at 3 s) lands, its reply (sent at 3.0002 s) is lost.
  fault::FaultPlan plan(5);
  fault::FaultSpec outage;
  outage.site = fault::FaultSite::kControlChannelOutage;
  outage.target = "ovs";
  outage.at = 3_s + 100_us;
  outage.duration = 200_us;
  plan.add(outage);
  bed.injectFaults(plan);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  const Ipv4 client = bed.client(0).ip();

  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  // The second request rides the switch entry between the 2 s and the 3 s
  // scans: only the lost reply and the ones after it can report it.
  bed.sim().scheduleAt(2500_ms, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  });
  bed.sim().runUntil(2900_ms);
  const auto traffic = forwardLastUsed(bed, client);
  ASSERT_TRUE(traffic.has_value());
  ASSERT_GT(*traffic, 2500_ms);
  const std::uint64_t drops = bed.ovs().controlDrops();
  const SimTime expiredAt = expectedExpiry(*traffic, 3_s);
  EXPECT_EQ(expiredAt, 6_s + kScanRoundTrip);
  expectExpiresAt(bed, client, expiredAt);
  EXPECT_EQ(bed.ovs().controlDrops(), drops + 1);
}

}  // namespace
}  // namespace edgesim::core
