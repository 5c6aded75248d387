// Mobility & transparent handover suite (`ctest -L mobility`):
//
//   * waypoint interpolation + the seeded path generators (pure functions
//     of their params -- determinism is asserted, not assumed);
//   * MobilityModel nearest-station / cluster-rank geometry;
//   * AttachmentManager change detection and its ProximityProvider view;
//   * the controller's handover state machine (idle -> re-steer -> settle):
//     warm re-steer within one rule-install RTT, cold deploy-then-re-steer,
//     degrade-to-cloud on governor veto and on deploy failure, scale-down
//     of the vacated instance, exact accounting
//       handoversStarted == handoversCompleted + handoversAbortedToCloud;
//   * the full commute-wave loop through HandoverManager.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "mobility/attachment.hpp"
#include "mobility/handover.hpp"
#include "mobility/mobility_model.hpp"
#include "workload/mobility_paths.hpp"

namespace edgesim::mobility {
namespace {

using namespace timeliterals;
using core::ClusterMode;
using core::EdgeController;
using edgesim::Endpoint;
using core::HandoverResult;
using core::Testbed;
using core::TestbedOptions;
using workload::CommuteWaveParams;
using workload::MobilityPath;
using workload::Position;
using workload::RandomWaypointParams;
using workload::StadiumEgressParams;
using workload::Waypoint;

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

double dist(Position a, Position b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

// ---- waypoint interpolation ------------------------------------------------

TEST(PathInterpolation, ClampsOutsideTheTimeRange) {
  MobilityPath path;
  path.waypoints = {{1_s, {0.0, 0.0}}, {3_s, {100.0, 50.0}}};
  EXPECT_DOUBLE_EQ(path.positionAt(SimTime::zero()).x, 0.0);
  EXPECT_DOUBLE_EQ(path.positionAt(500_ms).y, 0.0);
  EXPECT_DOUBLE_EQ(path.positionAt(10_s).x, 100.0);
  EXPECT_DOUBLE_EQ(path.positionAt(10_s).y, 50.0);
}

TEST(PathInterpolation, LinearBetweenWaypoints) {
  MobilityPath path;
  path.waypoints = {{1_s, {0.0, 0.0}}, {3_s, {100.0, 50.0}}};
  const Position mid = path.positionAt(2_s);
  EXPECT_DOUBLE_EQ(mid.x, 50.0);
  EXPECT_DOUBLE_EQ(mid.y, 25.0);
  const Position quarter = path.positionAt(1_s + 500_ms);
  EXPECT_DOUBLE_EQ(quarter.x, 25.0);
  EXPECT_DOUBLE_EQ(quarter.y, 12.5);
}

TEST(PathInterpolation, HitsWaypointsExactly) {
  MobilityPath path;
  path.waypoints = {{0_s, {1.0, 2.0}}, {2_s, {3.0, 4.0}}, {5_s, {5.0, 6.0}}};
  EXPECT_DOUBLE_EQ(path.positionAt(2_s).x, 3.0);
  EXPECT_DOUBLE_EQ(path.positionAt(2_s).y, 4.0);
}

// ---- seeded generators -----------------------------------------------------

TEST(PathGenerators, CommuteWaveIsDeterministicPerSeed) {
  CommuteWaveParams params;
  params.seed = 42;
  params.clients = 8;
  const auto a = commuteWavePaths(params);
  const auto b = commuteWavePaths(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].waypoints.size(), b[i].waypoints.size());
    for (std::size_t w = 0; w < a[i].waypoints.size(); ++w) {
      EXPECT_EQ(a[i].waypoints[w].at, b[i].waypoints[w].at);
      EXPECT_DOUBLE_EQ(a[i].waypoints[w].pos.x, b[i].waypoints[w].pos.x);
      EXPECT_DOUBLE_EQ(a[i].waypoints[w].pos.y, b[i].waypoints[w].pos.y);
    }
  }
  params.seed = 43;
  const auto c = commuteWavePaths(params);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].waypoints.back().pos.x != c[i].waypoints.back().pos.x;
  }
  EXPECT_TRUE(differs) << "different seeds must move clients differently";
}

TEST(PathGenerators, CommuteWaveTravelsOriginToDestination) {
  CommuteWaveParams params;
  params.seed = 7;
  params.clients = 10;
  params.origin = {0.0, 0.0};
  params.destination = {1000.0, 0.0};
  params.scatterRadius = 50.0;
  const auto paths = commuteWavePaths(params);
  ASSERT_EQ(paths.size(), params.clients);
  for (const auto& path : paths) {
    EXPECT_LE(dist(path.waypoints.front().pos, params.origin),
              params.scatterRadius + 1e-9);
    EXPECT_LE(dist(path.waypoints.back().pos, params.destination),
              params.scatterRadius + 1e-9);
    EXPECT_GE(path.waypoints[1].at, params.firstDeparture);
    EXPECT_LE(path.waypoints[1].at,
              params.firstDeparture + params.departureWindow);
  }
}

TEST(PathGenerators, StadiumEgressDisperses) {
  StadiumEgressParams params;
  params.seed = 11;
  params.clients = 12;
  params.stadium = {500.0, 500.0};
  const auto paths = stadiumEgressPaths(params);
  ASSERT_EQ(paths.size(), params.clients);
  for (const auto& path : paths) {
    EXPECT_DOUBLE_EQ(path.waypoints.front().pos.x, params.stadium.x);
    const double home = dist(path.waypoints.back().pos, params.stadium);
    EXPECT_GE(home, params.minHomeDistance - 1e-9);
    EXPECT_LE(home, params.maxHomeDistance + 1e-9);
    EXPECT_GE(path.waypoints[1].at, params.eventEnd);
  }
}

TEST(PathGenerators, RandomWaypointStaysInsideTheArea) {
  RandomWaypointParams params;
  params.seed = 3;
  params.clients = 6;
  params.width = 800.0;
  params.height = 600.0;
  params.duration = 30_s;
  const auto paths = randomWaypointPaths(params);
  ASSERT_EQ(paths.size(), params.clients);
  for (const auto& path : paths) {
    ASSERT_GE(path.waypoints.size(), 2u);
    EXPECT_GE(path.waypoints.back().at, params.duration);
    for (const Waypoint& wp : path.waypoints) {
      EXPECT_GE(wp.pos.x, 0.0);
      EXPECT_LE(wp.pos.x, params.width);
      EXPECT_GE(wp.pos.y, 0.0);
      EXPECT_LE(wp.pos.y, params.height);
    }
  }
}

// ---- MobilityModel geometry ------------------------------------------------

std::vector<BaseStation> twoStations() {
  return {{"bs-egs", {0.0, 0.0}, "docker-egs"},
          {"bs-far", {1000.0, 0.0}, "docker-far"}};
}

TEST(MobilityModelTest, NearestStationBreaksTiesTowardLowestIndex) {
  MobilityModel model(twoStations());
  EXPECT_EQ(model.nearestStationIndex({100.0, 0.0}), 0u);
  EXPECT_EQ(model.nearestStationIndex({900.0, 0.0}), 1u);
  // Exactly halfway: deterministic tie-break toward station 0.
  EXPECT_EQ(model.nearestStationIndex({500.0, 0.0}), 0u);
}

TEST(MobilityModelTest, ClusterRanksFollowStationGeometry) {
  MobilityModel model(twoStations());
  EXPECT_EQ(model.clusterRankFrom(0, "docker-egs"), 0);
  EXPECT_EQ(model.clusterRankFrom(0, "docker-far"), 1);
  EXPECT_EQ(model.clusterRankFrom(1, "docker-far"), 0);
  EXPECT_EQ(model.clusterRankFrom(1, "docker-egs"), 1);
  // The cloud is served by no station: "no opinion", keep static ranks.
  EXPECT_EQ(model.clusterRankFrom(0, "cloud"), -1);
}

// ---- AttachmentManager -----------------------------------------------------

MobilityPath hopPath(SimTime when, Position from, Position to) {
  MobilityPath path;
  path.waypoints = {{SimTime::zero(), from}, {when, from}, {when + 1_s, to}};
  return path;
}

TEST(AttachmentTest, DetectsAttachmentChanges) {
  Simulation sim;
  MobilityModel model(twoStations());
  const Ipv4 client = clientAddress(0);
  model.setPath(client, hopPath(2_s, {0.0, 0.0}, {1000.0, 0.0}));

  AttachmentManager manager(sim, model, {.scanPeriod = 100_ms});
  struct Change {
    bool initial;
    std::string to;
  };
  std::vector<Change> changes;
  manager.setChangeListener(
      [&](Ipv4 who, const BaseStation* from, const BaseStation& to) {
        EXPECT_EQ(who, client);
        changes.push_back({from == nullptr, to.name});
      });
  manager.start();
  ASSERT_NE(manager.attachmentOf(client), nullptr);
  EXPECT_EQ(manager.attachmentOf(client)->name, "bs-egs");

  sim.runUntil(10_s);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0].initial);
  EXPECT_EQ(changes[0].to, "bs-egs");
  EXPECT_FALSE(changes[1].initial);
  EXPECT_EQ(changes[1].to, "bs-far");
  EXPECT_EQ(manager.attachmentChanges(), 2u);
  EXPECT_EQ(manager.attachmentOf(client)->cluster, "docker-far");
}

TEST(AttachmentTest, ProximityRanksTrackTheClient) {
  Simulation sim;
  MobilityModel model(twoStations());
  const Ipv4 client = clientAddress(0);
  model.setPath(client, hopPath(2_s, {0.0, 0.0}, {1000.0, 0.0}));
  AttachmentManager manager(sim, model, {.scanPeriod = 100_ms});

  // Before any scan: no attachment, no opinion.
  EXPECT_EQ(manager.distanceRank(client, "docker-egs"), -1);
  manager.start();
  EXPECT_EQ(manager.distanceRank(client, "docker-egs"), 0);
  EXPECT_EQ(manager.distanceRank(client, "docker-far"), 1);
  EXPECT_EQ(manager.distanceRank(client, "cloud"), -1);

  sim.runUntil(10_s);
  EXPECT_EQ(manager.distanceRank(client, "docker-egs"), 1);
  EXPECT_EQ(manager.distanceRank(client, "docker-far"), 0);
  // A client the model does not know keeps static ranks too.
  EXPECT_EQ(manager.distanceRank(clientAddress(9), "docker-egs"), -1);
}

// ---- handover state machine ------------------------------------------------

struct HandoverBed {
  explicit HandoverBed(TestbedOptions options = makeOptions())
      : bed(std::move(options)) {
    bed.warmImageCache("nginx");
    EXPECT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  }

  static TestbedOptions makeOptions() {
    TestbedOptions options;
    options.seed = 5;
    options.clientCount = 4;
    options.clusterMode = ClusterMode::kDockerOnly;
    options.farEdge = true;
    return options;
  }

  /// Run the simulation in small steps until `pred()` holds (or `budget`
  /// sim-time passes).  Keeps tests well under the 60 s memorized-flow
  /// idle timeout instead of fast-forwarding past it.
  template <typename Pred>
  bool runUntilTrue(Pred pred, SimTime budget = 30_s) {
    const SimTime deadline = bed.sim().now() + budget;
    while (!pred() && bed.sim().now() < deadline) {
      bed.sim().runUntil(bed.sim().now() + 100_ms);
    }
    return pred();
  }

  /// Establish a memorized flow for client `index` (lands on docker-egs,
  /// the nearest cluster by static rank).
  void establishFlow(std::size_t index) {
    bool done = false;
    bed.requestCatalog(index, "nginx", kNginxAddr, "establish",
                       [&](Result<HttpExchange> r) {
                         EXPECT_TRUE(r.ok());
                         done = true;
                       });
    EXPECT_TRUE(runUntilTrue([&] { return done; }));
  }

  SimTime ruleInstallRtt() {
    return bed.ovs().options().channelLatency +
           bed.ovs().options().channelLatency;
  }

  Testbed bed;
};

TEST(HandoverTest, WarmReSteerBoundedByOneRuleInstallRtt) {
  HandoverBed h;
  // Pre-deploy at the target so the handover is warm.
  ASSERT_TRUE(h.bed.controller().predeploy(kNginxAddr, "docker-far").ok());
  h.bed.sim().runUntil(60_s);
  ASSERT_FALSE(h.bed.farEdgeAdapter()->readyInstances(
      *h.bed.controller().serviceAt(kNginxAddr)).empty());
  h.establishFlow(0);
  const auto before =
      h.bed.controller().flowMemory().lookup(clientAddress(0), kNginxAddr);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->cluster, "docker-egs");

  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  h.bed.sim().runUntil(h.bed.sim().now() + 5_s);

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->started);
  EXPECT_TRUE(result->completed);
  EXPECT_FALSE(result->abortedToCloud);
  EXPECT_EQ(result->cluster, "docker-far");
  EXPECT_STREQ(result->reason, "warm");
  // The continuity gap is the flow-stats confirmation round trip: exactly
  // one rule-install RTT, never a cold deploy.
  EXPECT_GT(result->continuityGap, SimTime::zero());
  EXPECT_LE(result->continuityGap, h.ruleInstallRtt());
  EXPECT_GE(result->latency, result->continuityGap);

  // FlowMemory was re-bound; the client's next request is warm and served
  // by the far-edge instance end to end.
  const auto after =
      h.bed.controller().flowMemory().lookup(clientAddress(0), kNginxAddr);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->cluster, "docker-far");
  bool served = false;
  h.bed.requestCatalog(0, "nginx", kNginxAddr, "after-handover",
                       [&](Result<HttpExchange> r) {
                         EXPECT_TRUE(r.ok());
                         served = true;
                       });
  h.bed.sim().runUntil(h.bed.sim().now() + 10_s);
  EXPECT_TRUE(served);

  EXPECT_EQ(h.bed.controller().handoversStarted(), 1u);
  EXPECT_EQ(h.bed.controller().handoversCompleted(), 1u);
  EXPECT_EQ(h.bed.controller().handoversAbortedToCloud(), 0u);
}

TEST(HandoverTest, ColdHandoverDeploysTheTargetFirst) {
  HandoverBed h;
  h.establishFlow(0);

  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  ASSERT_TRUE(h.runUntilTrue([&] { return result.has_value(); }, 120_s));

  EXPECT_TRUE(result->completed);
  EXPECT_STREQ(result->reason, "deployed");
  EXPECT_EQ(result->cluster, "docker-far");
  // The deploy happens BEFORE the re-steer commits (the old instance keeps
  // serving), so the continuity gap stays one rule-install RTT while the
  // total handover latency includes the deployment.
  EXPECT_LE(result->continuityGap, h.ruleInstallRtt());
  EXPECT_GT(result->latency, h.ruleInstallRtt());
}

TEST(HandoverTest, NoOpWithoutMemorizedFlow) {
  HandoverBed h;
  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(2), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  h.bed.sim().runUntil(1_s);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->started);
  EXPECT_STREQ(result->reason, "no-memorized-flow");
  EXPECT_EQ(h.bed.controller().handoversStarted(), 0u);
}

TEST(HandoverTest, NoOpWhenAlreadyOnTheTarget) {
  HandoverBed h;
  h.establishFlow(0);
  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-egs",
      [&](const HandoverResult& r) { result = r; });
  h.bed.sim().runUntil(h.bed.sim().now() + 1_s);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->started);
  EXPECT_STREQ(result->reason, "already-on-target");
  EXPECT_EQ(h.bed.controller().handoversStarted(), 0u);
}

TEST(HandoverTest, DeployFailureDegradesToCloud) {
  TestbedOptions options = HandoverBed::makeOptions();
  options.controller.deployRetries = 1;
  options.controller.retryBackoff = 50_ms;
  HandoverBed h(options);

  fault::FaultPlan plan(17);
  fault::FaultSpec spec;
  spec.site = fault::FaultSite::kClusterRpc;
  spec.target = "docker-far";  // every phase on the target fails, forever
  plan.add(spec);
  h.bed.injectFaults(plan);

  h.establishFlow(0);
  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  ASSERT_TRUE(h.runUntilTrue([&] { return result.has_value(); }, 120_s));

  EXPECT_TRUE(result->started);
  EXPECT_FALSE(result->completed);
  EXPECT_TRUE(result->abortedToCloud);
  EXPECT_STREQ(result->reason, "deploy-failed");
  EXPECT_EQ(result->cluster, "cloud");
  // Never stranded: the flow now points at the cloud instance.
  const auto flow =
      h.bed.controller().flowMemory().lookup(clientAddress(0), kNginxAddr);
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(flow->cluster, "cloud");
  EXPECT_EQ(h.bed.controller().handoversStarted(), 1u);
  EXPECT_EQ(h.bed.controller().handoversCompleted(), 0u);
  EXPECT_EQ(h.bed.controller().handoversAbortedToCloud(), 1u);
}

TEST(HandoverTest, GovernorVetoDegradesToCloud) {
  TestbedOptions options = HandoverBed::makeOptions();
  options.controller.overload.enabled = true;
  HandoverBed h(options);
  h.establishFlow(0);

  // Trip the target cluster's breaker open: a handover INTO a sick cluster
  // must degrade to the cloud instead.
  auto& breaker = h.bed.governor()->breaker("docker-far");
  for (int i = 0; i < 10; ++i) breaker.recordFailure(h.bed.sim().now());
  ASSERT_EQ(breaker.state(h.bed.sim().now()), overload::BreakerState::kOpen);

  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  h.bed.sim().runUntil(h.bed.sim().now() + 5_s);

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->abortedToCloud);
  EXPECT_STREQ(result->reason, "governor-vetoed-target");
  EXPECT_EQ(result->cluster, "cloud");
  EXPECT_EQ(h.bed.controller().handoversAbortedToCloud(), 1u);
}

TEST(HandoverTest, ScalesDownTheVacatedInstance) {
  HandoverBed h;
  ASSERT_TRUE(h.bed.controller().predeploy(kNginxAddr, "docker-far").ok());
  h.bed.sim().runUntil(60_s);
  h.establishFlow(0);
  const core::ServiceModel* service =
      h.bed.controller().serviceAt(kNginxAddr).get();
  ASSERT_NE(service, nullptr);
  ASSERT_FALSE(h.bed.dockerAdapter()->readyInstances(*service).empty());

  const std::uint64_t scaleDownsBefore = h.bed.controller().scaleDowns();
  std::optional<HandoverResult> result;
  h.bed.controller().requestHandover(
      clientAddress(0), kNginxAddr, "docker-far",
      [&](const HandoverResult& r) { result = r; });
  h.bed.sim().runUntil(h.bed.sim().now() + 30_s);

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
  // The last flow left docker-egs with the handover: the vacated instance
  // is scaled down (idle -> re-steer -> settle -> scale-down).
  EXPECT_EQ(h.bed.controller().scaleDowns(), scaleDownsBefore + 1);
  EXPECT_TRUE(h.bed.dockerAdapter()->readyInstances(*service).empty());
}

TEST(HandoverTest, AccountingStaysExactAcrossAMix) {
  HandoverBed h;
  ASSERT_TRUE(h.bed.controller().predeploy(kNginxAddr, "docker-far").ok());
  h.bed.sim().runUntil(60_s);
  h.establishFlow(0);
  h.establishFlow(1);

  // Trip the far cluster AFTER one warm handover already landed there.
  std::size_t callbacks = 0;
  const auto count = [&](const HandoverResult&) { ++callbacks; };
  h.bed.controller().requestHandover(clientAddress(0), kNginxAddr,
                                     "docker-far", count);
  h.bed.controller().requestHandover(clientAddress(1), kNginxAddr,
                                     "no-such-cluster", count);
  h.bed.sim().runUntil(h.bed.sim().now() + 10_s);

  EXPECT_EQ(callbacks, 2u);
  const EdgeController& c = h.bed.controller();
  EXPECT_EQ(c.handoversStarted(), 2u);
  EXPECT_EQ(c.handoversCompleted(), 1u);
  EXPECT_EQ(c.handoversAbortedToCloud(), 1u);
  EXPECT_EQ(c.handoversStarted(),
            c.handoversCompleted() + c.handoversAbortedToCloud());
}

// ---- the full mobility loop ------------------------------------------------

TEST(MobilityIntegration, CommuteWaveMovesFlowsToTheFarEdge) {
  HandoverBed h;
  ASSERT_TRUE(h.bed.controller().predeploy(kNginxAddr, "docker-far").ok());
  h.bed.sim().runUntil(60_s);

  MobilityModel model(twoStations());
  CommuteWaveParams wave;
  wave.seed = 9;
  wave.clients = 3;
  wave.origin = {0.0, 0.0};
  wave.destination = {1000.0, 0.0};
  wave.scatterRadius = 50.0;
  wave.firstDeparture = 65_s;
  wave.departureWindow = 5_s;
  wave.travelTime = 5_s;
  const auto paths = commuteWavePaths(wave);
  for (std::size_t i = 0; i < wave.clients; ++i) {
    model.setPath(clientAddress(i), paths[i]);
  }

  AttachmentManager attachments(h.bed.sim(), model, {.scanPeriod = 250_ms});
  HandoverManager handovers(h.bed.controller(), attachments);
  std::size_t completed = 0;
  handovers.setResultListener([&](Ipv4, const HandoverResult& r) {
    if (r.completed) ++completed;
  });
  handovers.start();

  for (std::size_t i = 0; i < wave.clients; ++i) h.establishFlow(i);
  for (std::size_t i = 0; i < wave.clients; ++i) {
    const auto flow =
        h.bed.controller().flowMemory().lookup(clientAddress(i), kNginxAddr);
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->cluster, "docker-egs");
  }

  // Let the wave play out: every client walks from the EGS cell to the
  // far-edge cell; the attachment scan detects it and the handover manager
  // re-steers each memorized flow.
  ASSERT_TRUE(
      h.runUntilTrue([&] { return completed == wave.clients; }, 60_s));

  EXPECT_EQ(completed, wave.clients);
  EXPECT_EQ(h.bed.controller().handoversCompleted(), wave.clients);
  EXPECT_EQ(h.bed.controller().handoversStarted(),
            h.bed.controller().handoversCompleted() +
                h.bed.controller().handoversAbortedToCloud());
  for (std::size_t i = 0; i < wave.clients; ++i) {
    const auto flow =
        h.bed.controller().flowMemory().lookup(clientAddress(i), kNginxAddr);
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->cluster, "docker-far");
  }

  // Moved clients stay served -- transparently, through the same address.
  bool served = false;
  h.bed.requestCatalog(0, "nginx", kNginxAddr, "post-move",
                       [&](Result<HttpExchange> r) {
                         EXPECT_TRUE(r.ok());
                         served = true;
                       });
  h.bed.sim().runUntil(h.bed.sim().now() + 10_s);
  EXPECT_TRUE(served);

  // Telemetry: the lazily-registered handover series are now live.
  const auto snap = h.bed.telemetry().snapshot(h.bed.sim().now().toSeconds());
  EXPECT_EQ(snap.counterTotal("edgesim_handovers_total"),
            h.bed.controller().handoversStarted() +
                h.bed.controller().handoversCompleted() +
                h.bed.controller().handoversAbortedToCloud());
}

}  // namespace
}  // namespace edgesim::mobility
