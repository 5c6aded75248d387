// Control-channel resilience tests: the acked-FlowMod install path
// (retry, failover, accounting invariant), the three control-channel fault
// sites threaded through OpenFlowSwitch (per-message loss, outage windows,
// switch restarts), and the anti-entropy RuleReconciler (missing-rule
// repair, orphan deletion, FlowRemoved resynthesis, lossy-sweep deadlines).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/rule_reconciler.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;
using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultSpec;
using openflow::FlowEntry;
using openflow::FlowMatch;

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

FaultSpec controlFault(FaultSite site, std::string target) {
  FaultSpec spec;
  spec.site = site;
  spec.target = std::move(target);
  return spec;
}

/// Redirect-entry diff key, mirroring RuleReconciler's shape identity.
std::string shapeKey(const FlowEntry& entry) {
  return std::to_string(entry.priority) + "|" + entry.match.toString() + "|" +
         openflow::actionsToString(entry.actions);
}

std::set<std::string> redirectShapes(const openflow::OpenFlowSwitch& sw) {
  std::set<std::string> shapes;
  for (const auto& entry : sw.table().entries()) {
    if (entry.priority >= kRedirectPriority) shapes.insert(shapeKey(entry));
  }
  return shapes;
}

void expectAccountingInvariant(EdgeController& controller) {
  EXPECT_EQ(controller.flowModsSent(),
            controller.flowModsAcked() + controller.flowModsTimedOut());
  EXPECT_EQ(controller.pendingInstallCount(), 0u);
}

// ------------------------------------------------------------ config ----

TEST(ReconcileConfigTest, ParsesResilienceKeys) {
  const auto parsed = Config::parse(R"(
reliable_flow_mods = false
flow_mod_ack_timeout_ms = 75
flow_mod_retries = 5
reconcile_period_ms = 2000
reconcile_sweep_timeout_ms = 100
)");
  ASSERT_TRUE(parsed.ok());
  const auto result = ControllerOptions::fromConfig(parsed.value());
  ASSERT_TRUE(result.ok()) << result.error().toString();
  const ControllerOptions& options = result.value();
  EXPECT_FALSE(options.reliableFlowMods);
  EXPECT_EQ(options.flowModAckTimeout, 75_ms);
  EXPECT_EQ(options.flowModRetries, 5);
  EXPECT_EQ(options.reconcilePeriod, 2_s);
  EXPECT_EQ(options.reconcileSweepTimeout, 100_ms);
}

TEST(ReconcileConfigTest, ReconcileEnabledImpliesDefaultPeriod) {
  const auto parsed = Config::parse("reconcile_enabled = true\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ControllerOptions::fromConfig(parsed.value()).value()
                .reconcilePeriod,
            1_s);
  // Off by default: no period, no reconciler.
  EXPECT_EQ(ControllerOptions::fromConfig(Config()).value().reconcilePeriod,
            SimTime::zero());
}

// ---------------------------------------------------- acked installs ----

TEST(ReconcileTest, CleanChannelAcksEveryInstall) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(10_s);

  ASSERT_TRUE(got.has_value() && got->ok());
  auto& ctrl = bed.controller();
  EXPECT_GT(ctrl.flowModsSent(), 0u);
  EXPECT_EQ(ctrl.flowModsAcked(), ctrl.flowModsSent());
  EXPECT_EQ(ctrl.flowModsTimedOut(), 0u);
  EXPECT_EQ(ctrl.flowModResends(), 0u);
  expectAccountingInvariant(ctrl);
}

// ledgerViolations() names an install still waiting for its acks, and is
// empty once the run is quiescent.
TEST(ReconcileTest, LedgerViolationsNameAnInstallInFlight) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  auto& ctrl = bed.controller();
  EXPECT_TRUE(ctrl.ledgerViolations().empty());

  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  while (ctrl.pendingInstallCount() == 0 && bed.sim().step()) {
  }
  ASSERT_EQ(ctrl.pendingInstallCount(), 1u);
  const std::vector<std::string> inFlight = ctrl.ledgerViolations();
  ASSERT_FALSE(inFlight.empty());
  EXPECT_NE(inFlight.back().find("1 installs pending"), std::string::npos)
      << inFlight.back();

  bed.sim().runUntil(10_s);
  EXPECT_TRUE(ctrl.ledgerViolations().empty());
}

// ledgerViolations() names a handover still in flight -- client, service
// and both clusters -- and is empty once it has settled.
TEST(ReconcileTest, LedgerViolationsNameAHandoverInFlight) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  auto& ctrl = bed.controller();
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(10_s);
  ASSERT_TRUE(ctrl.ledgerViolations().empty());

  std::optional<HandoverResult> result;
  ctrl.requestHandover(clientAddress(0), kNginxAddr, "docker-far",
                       [&](const HandoverResult& r) { result = r; });
  ASSERT_EQ(ctrl.handoversStarted(), 1u);
  ASSERT_FALSE(result.has_value());  // the far edge deploys first
  const std::vector<std::string> inFlight = ctrl.ledgerViolations();
  ASSERT_EQ(inFlight.size(), 1u);
  EXPECT_NE(inFlight.back().find("1 in flight: " +
                                 clientAddress(0).toString() + "->" +
                                 kNginxAddr.toString() +
                                 " (docker-egs to docker-far)"),
            std::string::npos)
      << inFlight.back();

  bed.sim().runUntil(bed.sim().now() + 30_s);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
  EXPECT_TRUE(ctrl.ledgerViolations().empty());
}

TEST(ReconcileTest, LegacyModeSendsUntracked) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reliableFlowMods = false;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(10_s);

  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(bed.controller().flowModsSent(), 0u);
  EXPECT_EQ(bed.controller().flowModsAcked(), 0u);
}

TEST(ReconcileTest, ControlChannelLossTriggersRetry) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Eat the first two controller->switch messages after injection; the
  // ack deadline fires and the capped-backoff retry repairs the install.
  FaultPlan plan(11);
  FaultSpec loss = controlFault(FaultSite::kControlChannelLoss, "ovs/c2s");
  loss.maxTriggers = 2;
  plan.add(loss);
  bed.injectFaults(plan);

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(20_s);

  ASSERT_TRUE(got.has_value() && got->ok()) << "lost FlowMods must be retried";
  auto& ctrl = bed.controller();
  EXPECT_GE(ctrl.flowModResends(), 1u);
  EXPECT_GT(ctrl.flowModsTimedOut(), 0u);
  EXPECT_EQ(bed.ovs().controlDrops(), 2u);
  EXPECT_EQ(ctrl.flowModFailovers(), 0u);
  expectAccountingInvariant(ctrl);
}

TEST(ReconcileTest, FailoverAfterRetriesExhausted) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Enough drops to exhaust a full install cycle (1 initial + 3 retries,
  // two entries each, plus packet-outs and the installs spawned by SYN
  // retransmits sharing the same window), then the channel heals: a later
  // SYN retransmit resolves cleanly and the request completes -- degraded,
  // not blackholed.
  FaultPlan plan(11);
  FaultSpec loss = controlFault(FaultSite::kControlChannelLoss, "ovs/c2s");
  loss.maxTriggers = 20;
  plan.add(loss);
  bed.injectFaults(plan);

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);

  auto& ctrl = bed.controller();
  EXPECT_GE(ctrl.flowModFailovers(), 1u);
  EXPECT_GE(ctrl.requestsDegraded(), 1u);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok()) << "failover must keep the request answerable";
  // The flow stays memorized; once the channel heals, SYN-retransmit
  // resolutions may legitimately rebind it from the degraded cloud
  // instance back to the edge, so only existence is pinned here.
  EXPECT_TRUE(
      ctrl.flowMemory().lookup(bed.client(0).ip(), kNginxAddr).has_value());
  expectAccountingInvariant(ctrl);
}

// ------------------------------------------------- outage & restart ----

TEST(ReconcileTest, OutageWindowDropsControlMessages) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);

  FaultPlan plan(11);
  FaultSpec outage = controlFault(FaultSite::kControlChannelOutage, "ovs");
  outage.at = 1_s;
  outage.duration = 200_ms;
  plan.add(outage);
  bed.injectFaults(plan);

  bed.sim().runUntil(1100_ms);
  EXPECT_FALSE(bed.ovs().channelUp());

  // A FlowMod sent inside the window is dropped: no install, no ack.
  FlowEntry entry;
  entry.priority = 100;
  entry.match = FlowMatch::anyToService(kNginxAddr);
  entry.cookie = 99;
  const std::size_t before = bed.ovs().table().size();
  bool acked = false;
  bed.ovs().sendFlowMod(entry, [&] { acked = true; });
  bed.sim().runUntil(1150_ms);
  EXPECT_FALSE(acked);
  EXPECT_EQ(bed.ovs().table().size(), before);
  EXPECT_GE(bed.ovs().controlDrops(), 1u);

  // After the window lifts the channel carries messages again.
  bed.sim().runUntil(1300_ms);
  EXPECT_TRUE(bed.ovs().channelUp());
  bed.ovs().sendFlowMod(entry, [&] { acked = true; });
  bed.sim().runUntil(1400_ms);
  EXPECT_TRUE(acked);
  EXPECT_EQ(bed.ovs().table().size(), before + 1);
}

TEST(ReconcileTest, SwitchRestartWipesFlowTable) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  // Long idle timeouts so the redirect entries are still installed when
  // the restart hits.
  options.controller.switchIdleTimeout = 60_s;
  options.controller.memoryIdleTimeout = 300_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  FaultPlan plan(11);
  FaultSpec restart = controlFault(FaultSite::kSwitchRestart, "ovs");
  restart.at = 6_s;  // instant restart: duration zero
  plan.add(restart);
  bed.injectFaults(plan);

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(5900_ms);
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_GT(bed.ovs().table().size(), 0u);
  EXPECT_FALSE(redirectShapes(bed.ovs()).empty());

  bed.sim().runUntil(6100_ms);
  EXPECT_EQ(bed.ovs().table().size(), 0u);
  EXPECT_EQ(bed.ovs().restartCount(), 1u);
  // The crash loses FlowRemoved notifications: the controller still
  // believes in the flow.
  EXPECT_TRUE(bed.controller()
                  .flowMemory()
                  .lookup(bed.client(0).ip(), kNginxAddr)
                  .has_value());
}

// --------------------------------------------------------- reconciler ----

TEST(ReconcileTest, RestartDriftRepairedWithinTwoSweeps) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reconcilePeriod = 1_s;
  options.controller.switchIdleTimeout = 60_s;
  options.controller.memoryIdleTimeout = 300_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  FaultPlan plan(11);
  FaultSpec restart = controlFault(FaultSite::kSwitchRestart, "ovs");
  restart.at = 5500_ms;
  plan.add(restart);
  bed.injectFaults(plan);

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(3_s);
  ASSERT_TRUE(got.has_value() && got->ok());
  const auto intendedBefore = redirectShapes(bed.ovs());
  ASSERT_FALSE(intendedBefore.empty());

  // Restart at 5.5s wipes the table; sweeps at 6s and 7s must restore it.
  bed.sim().runUntil(7500_ms);
  EXPECT_EQ(bed.ovs().restartCount(), 1u);
  auto* reconciler = bed.controller().reconciler();
  ASSERT_NE(reconciler, nullptr);
  EXPECT_GE(reconciler->stats().sweeps, 2u);
  EXPECT_GE(reconciler->stats().driftMissing, 1u);
  EXPECT_GE(reconciler->stats().flowsReinstalled, 1u);
  EXPECT_GE(reconciler->stats().flowRemovedResynthesized, 1u);

  // The repaired table carries exactly the intended redirect entries.
  std::set<std::string> intended;
  for (const auto& flow : bed.controller().intendedFlows(bed.ovs())) {
    for (const auto& entry : flow.entries) intended.insert(shapeKey(entry));
  }
  EXPECT_EQ(redirectShapes(bed.ovs()), intended);
  EXPECT_EQ(redirectShapes(bed.ovs()), intendedBefore);
  expectAccountingInvariant(bed.controller());
  // Telemetry mirrors the stats counters.
  EXPECT_GE(bed.telemetry()
                .counter("edgesim_reconcile_rules_reinstalled_total")
                .value(),
            1u);
}

TEST(ReconcileTest, OrphanEntriesDeleted) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  // Reconciler exists but the periodic sweep stays out of the way; the
  // test drives sweeps explicitly.
  options.controller.reconcilePeriod = 1000_s;
  Testbed bed(options);

  FlowEntry orphan;
  orphan.priority = 100;
  orphan.match = FlowMatch::anyToService(kNginxAddr);
  orphan.cookie = 4242;
  bed.ovs().sendFlowMod(orphan);
  bed.sim().runUntil(100_ms);
  ASSERT_FALSE(redirectShapes(bed.ovs()).empty());

  auto* reconciler = bed.controller().reconciler();
  ASSERT_NE(reconciler, nullptr);
  bool settled = false;
  reconciler->sweepNow([&] { settled = true; });
  bed.sim().runUntil(1_s);

  EXPECT_TRUE(settled);
  EXPECT_EQ(reconciler->stats().driftOrphans, 1u);
  EXPECT_EQ(reconciler->stats().orphansDeleted, 1u);
  EXPECT_TRUE(redirectShapes(bed.ovs()).empty());

  // A second sweep over the converged table is a pure no-op.
  reconciler->sweepNow();
  bed.sim().runUntil(2_s);
  EXPECT_EQ(reconciler->stats().sweeps, 2u);
  EXPECT_EQ(reconciler->stats().driftOrphans, 1u);
  EXPECT_EQ(reconciler->stats().driftMissing, 0u);
}

TEST(ReconcileTest, LostFlowRemovedIsResynthesized) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reconcilePeriod = 2_s;
  options.controller.switchIdleTimeout = 500_ms;
  options.controller.memoryIdleTimeout = 300_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Let the handshake's switch->controller messages (one packet-in, two
  // install acks) through, then eat the next one: the idle-expiry
  // FlowRemoved.  The controller keeps believing in a flow the switch no
  // longer carries; the sweep re-installs it and refreshes the memorized
  // flow in lieu of the lost notification.
  FaultPlan plan(11);
  FaultSpec loss = controlFault(FaultSite::kControlChannelLoss, "ovs/s2c");
  loss.skipFirst = 3;
  loss.maxTriggers = 1;
  plan.add(loss);
  bed.injectFaults(plan);

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(10_s);

  ASSERT_TRUE(got.has_value() && got->ok());
  auto* reconciler = bed.controller().reconciler();
  ASSERT_NE(reconciler, nullptr);
  EXPECT_GE(reconciler->stats().driftMissing, 1u);
  EXPECT_GE(reconciler->stats().flowsReinstalled, 1u);
  EXPECT_GE(reconciler->stats().flowRemovedResynthesized, 1u);
  expectAccountingInvariant(bed.controller());
}

TEST(ReconcileTest, SweepDeadlineBoundsLostStatsReplies) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reconcilePeriod = 1000_s;
  options.controller.reconcileSweepTimeout = 100_ms;
  Testbed bed(options);

  FaultPlan plan(11);
  FaultSpec outage = controlFault(FaultSite::kControlChannelOutage, "ovs");
  outage.at = 1_s;  // down for good
  plan.add(outage);
  bed.injectFaults(plan);

  bed.sim().runUntil(2_s);
  auto* reconciler = bed.controller().reconciler();
  ASSERT_NE(reconciler, nullptr);
  bool settled = false;
  SimTime settledAt;
  reconciler->sweepNow([&] {
    settled = true;
    settledAt = bed.sim().now();
  });
  bed.sim().runUntil(5_s);

  EXPECT_TRUE(settled) << "a dead switch must not wedge the sweeper";
  EXPECT_LE(settledAt, 2_s + 150_ms);
  EXPECT_EQ(reconciler->stats().statsTimeouts, 1u);
  EXPECT_EQ(reconciler->stats().sweeps, 1u);
  EXPECT_GE(bed.telemetry()
                .counter("edgesim_reconcile_stats_timeouts_total")
                .value(),
            1u);
}

}  // namespace
}  // namespace edgesim::core
