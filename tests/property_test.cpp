// Cross-cutting property and stress tests:
//   * randomly generated yamlite documents round-trip (grammar fuzz),
//   * randomised concurrent workloads through the full testbed always
//     terminate with every request answered exactly once,
//   * end-to-end determinism across seeds,
//   * FlowMemory model-based check against a reference map,
//   * under any seeded fault plan, every resolve terminates in bounded time
//     with an instance or the cloud endpoint -- never a hang or a dangling
//     pending deployment,
//   * under any randomized overload configuration (budget, deploy cap,
//     brownout) and seeded arrival times every submitted request is
//     answered exactly once and the shed accounting balances:
//     submitted == resolved + shed + failed,
//   * under randomized mobility traces crossed with randomized fault plans
//     every request is still answered exactly once and the handover books
//     balance: started == completed + aborted_to_cloud (HandoverContinuity),
//   * under randomized control-channel fault schedules (message loss, outage
//     windows, switch restarts) crossed with workload seeds, once the faults
//     clear the anti-entropy sweeper converges every switch table back to
//     exactly FlowMemory's intended redirect state within two sweep periods,
//     and the install books balance: sent == acked + timed_out
//     (RuleStateConvergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/rule_reconciler.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "mobility/attachment.hpp"
#include "mobility/handover.hpp"
#include "mobility/mobility_model.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload/mobility_paths.hpp"
#include "yamlite/parse.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;
using core::ClusterMode;
using core::Testbed;
using core::TestbedOptions;

// ------------------------------------------------------- yamlite fuzz ----

yamlite::Node randomNode(Rng& rng, int depth) {
  const double r = rng.uniform01();
  if (depth <= 0 || r < 0.45) {
    // Scalar: mix plain words, numbers, and nasty strings.
    switch (rng.uniformInt(0, 4)) {
      case 0: return yamlite::Node::scalar(strprintf("word%llu",
                  (unsigned long long)rng.uniformInt(0, 99)));
      case 1: return yamlite::Node::scalar(
                  static_cast<std::int64_t>(rng.uniformInt(0, 1000000)));
      case 2: return yamlite::Node::scalar("needs: quoting");
      case 3: return yamlite::Node::scalar("-starts-with-dash");
      default: return yamlite::Node::scalar("with \"quotes\" and\nnewline");
    }
  }
  if (r < 0.7) {
    yamlite::Node seq = yamlite::Node::sequence();
    const auto n = rng.uniformInt(1, 4);
    for (std::uint64_t i = 0; i < n; ++i) {
      seq.push(randomNode(rng, depth - 1));
    }
    return seq;
  }
  yamlite::Node map = yamlite::Node::mapping();
  const auto n = rng.uniformInt(1, 5);
  for (std::uint64_t i = 0; i < n; ++i) {
    map.set(strprintf("key%llu", (unsigned long long)i),
            randomNode(rng, depth - 1));
  }
  return map;
}

class YamlFuzz : public ::testing::TestWithParam<int> {};

TEST_P(YamlFuzz, RandomDocumentsRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1237 + 5);
  for (int trial = 0; trial < 40; ++trial) {
    yamlite::Node doc = yamlite::Node::mapping();
    const auto n = rng.uniformInt(1, 5);
    for (std::uint64_t i = 0; i < n; ++i) {
      doc.set(strprintf("top%llu", (unsigned long long)i), randomNode(rng, 3));
    }
    const std::string text = yamlite::emit(doc);
    const auto parsed = yamlite::parse(text);
    ASSERT_TRUE(parsed.ok())
        << parsed.error().toString() << "\n--- document:\n" << text;
    EXPECT_TRUE(doc == parsed.value()) << "--- document:\n" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlFuzz, ::testing::Range(1, 9));

// ------------------------------------------------ workload stress ----

class WorkloadStress : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadStress, EveryRequestAnsweredExactlyOnce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  TestbedOptions options;
  options.seed = seed;
  options.clusterMode =
      (seed % 2 == 0) ? ClusterMode::kDockerOnly : ClusterMode::kBoth;
  options.controller.memoryIdleTimeout = SimTime::seconds(8.0);
  options.controller.switchIdleTimeout = SimTime::seconds(2.0);
  Testbed bed(options);

  Rng rng(seed * 31 + 7);
  // 2-4 services, mixed types (no resnet: keeps the horizon short).
  const std::vector<std::string> kinds{"asm", "nginx", "nginx-py"};
  const auto serviceCount = rng.uniformInt(2, 4);
  std::vector<Endpoint> addresses;
  for (std::uint64_t s = 0; s < serviceCount; ++s) {
    const Endpoint address(
        Ipv4(203, 0, 113, static_cast<std::uint8_t>(s + 1)), 80);
    const auto& kind = kinds[rng.uniformInt(0, kinds.size() - 1)];
    ASSERT_TRUE(bed.registerCatalogService(kind, address).ok());
    bed.warmImageCache(kind);
    addresses.push_back(address);
  }

  // 60 requests over 60 s from random clients to random services,
  // including bursts at identical timestamps.
  int answered = 0;
  int issued = 0;
  for (int i = 0; i < 60; ++i) {
    const double at = rng.uniform(0.0, 60.0);
    const auto client = rng.uniformInt(0, bed.clientCount() - 1);
    const auto& address = addresses[rng.uniformInt(0, addresses.size() - 1)];
    ++issued;
    bed.sim().scheduleAt(SimTime::seconds(at), [&bed, client, address,
                                                &answered] {
      HttpRequest req;
      bed.client(client).httpRequest(address, req,
                                     [&answered](Result<HttpExchange> r) {
                                       ASSERT_TRUE(r.ok())
                                           << r.error().toString();
                                       ++answered;
                                     });
    });
  }
  bed.sim().runUntil(SimTime::seconds(180.0));
  EXPECT_EQ(answered, issued);
  EXPECT_EQ(bed.controller().requestsFailed(), 0u);
  // Nothing left half-finished inside the dispatcher.
  EXPECT_EQ(bed.controller().dispatcher().pendingDeployments(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadStress, ::testing::Range(1, 9));

// ---------------------------------------------------- determinism ----

TEST(DeterminismProperty, IdenticalAcrossRunsForManySeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto run = [seed] {
      TestbedOptions options;
      options.seed = seed;
      options.clusterMode = ClusterMode::kBoth;
      Testbed bed(options);
      EXPECT_TRUE(
          bed.registerCatalogService("nginx", Endpoint(Ipv4(203, 0, 113, 1), 80))
              .ok());
      bed.warmImageCache("nginx");
      std::vector<double> totals;
      for (std::size_t c = 0; c < 5; ++c) {
        bed.requestCatalog(c, "nginx", Endpoint(Ipv4(203, 0, 113, 1), 80),
                           "t", [&totals](Result<HttpExchange> r) {
                             ASSERT_TRUE(r.ok());
                             totals.push_back(
                                 r.value().timings.timeTotal().toSeconds());
                           });
      }
      bed.sim().runUntil(SimTime::seconds(60.0));
      return totals;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

// --------------------------------------------- FlowMemory model check ----

TEST(FlowMemoryModel, MatchesReferenceMapUnderRandomOps) {
  using core::FlowMemory;
  Rng rng(424242);
  const SimTime timeout = SimTime::seconds(10.0);
  FlowMemory memory(timeout);

  struct RefFlow {
    Endpoint instance;
    std::string cluster;
    SimTime lastSeen;
  };
  std::map<std::pair<Ipv4, Endpoint>, RefFlow> reference;

  SimTime now;
  for (int step = 0; step < 2000; ++step) {
    now += SimTime::millis(static_cast<std::int64_t>(rng.uniformInt(1, 2000)));
    const Ipv4 client(10, 0, 2, static_cast<std::uint8_t>(rng.uniformInt(1, 5)));
    const Endpoint service(
        Ipv4(203, 0, 113, static_cast<std::uint8_t>(rng.uniformInt(1, 3))), 80);
    const Endpoint instance(
        Ipv4(10, 0, 1, 1),
        static_cast<std::uint16_t>(30000 + rng.uniformInt(0, 3)));
    const std::string cluster = rng.chance(0.5) ? "near" : "far";

    switch (rng.uniformInt(0, 3)) {
      case 0:
        memory.upsert(client.value ? client : client, service, instance,
                      cluster, now);
        reference[{client, service}] = RefFlow{instance, cluster, now};
        break;
      case 1: {
        memory.touch(client, service, now);
        const auto it = reference.find({client, service});
        if (it != reference.end()) {
          it->second.lastSeen = std::max(it->second.lastSeen, now);
        }
        break;
      }
      case 2: {
        const auto expired = memory.expire(now);
        std::size_t refExpired = 0;
        for (auto it = reference.begin(); it != reference.end();) {
          if (now - it->second.lastSeen >= timeout) {
            it = reference.erase(it);
            ++refExpired;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(expired.size(), refExpired);
        break;
      }
      default: {
        const auto flow = memory.lookup(client, service);
        const auto it = reference.find({client, service});
        if (it == reference.end()) {
          EXPECT_FALSE(flow.has_value());
        } else {
          ASSERT_TRUE(flow.has_value());
          EXPECT_EQ(flow->instance, it->second.instance);
          EXPECT_EQ(flow->cluster, it->second.cluster);
          EXPECT_EQ(flow->lastSeen, it->second.lastSeen);
        }
        break;
      }
    }
    EXPECT_EQ(memory.size(), reference.size());
  }
}

// ------------------------------------------------- fault invariant ----
//
// Inject a randomly generated (but seed-deterministic) fault plan into the
// full testbed, then drive resolves from many clients.  Whatever the plan
// does, every resolve must terminate -- with an edge instance or the cloud
// endpoint -- within deployTimeout * (retries + 1), and the dispatcher must
// not keep a dangling pending-deployment entry.

class FaultInvariant : public ::testing::TestWithParam<int> {};

TEST_P(FaultInvariant, EveryResolveTerminatesInBoundedTime) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  TestbedOptions options;
  options.seed = seed;
  options.clusterMode =
      (seed % 2 == 0) ? ClusterMode::kDockerOnly : ClusterMode::kBoth;
  options.farEdge = (seed % 3 == 0);
  options.controller.deployRetries = 2;
  options.controller.retryBackoff = SimTime::millis(100);
  options.controller.phaseTimeout = SimTime::seconds(20.0);
  options.controller.deployTimeout = SimTime::seconds(40.0);
  Testbed bed(options);

  fault::FaultPlan plan(seed * 977 + 3);
  Rng rng(seed * 131 + 17);
  const std::vector<std::string> rpcTargets{
      "docker-egs", "k8s-egs", "docker-far", "docker-egs/pull",
      "k8s-egs/scaleup"};
  const std::vector<fault::FaultSite> sites{
      fault::FaultSite::kRegistryPull, fault::FaultSite::kContainerCreate,
      fault::FaultSite::kContainerStart, fault::FaultSite::kClusterRpc};
  const auto specCount = rng.uniformInt(2, 6);
  for (std::uint64_t i = 0; i < specCount; ++i) {
    fault::FaultSpec spec;
    spec.site = sites[rng.uniformInt(0, sites.size() - 1)];
    if (spec.site == fault::FaultSite::kClusterRpc) {
      spec.target = rpcTargets[rng.uniformInt(0, rpcTargets.size() - 1)];
    } else if (rng.chance(0.5)) {
      spec.target = rng.chance(0.5) ? "egs" : "far-edge";
    }
    spec.probability = rng.uniform(0.2, 1.0);
    spec.maxTriggers =
        rng.chance(0.3) ? static_cast<int>(rng.uniformInt(1, 3)) : -1;
    spec.skipFirst = static_cast<int>(rng.uniformInt(0, 2));
    spec.stall =
        SimTime::millis(static_cast<std::int64_t>(rng.uniformInt(0, 500)));
    plan.add(spec);
  }
  bed.injectFaults(plan);

  const Endpoint addr(Ipv4(203, 0, 113, 1), 80);
  ASSERT_TRUE(bed.registerCatalogService("nginx", addr).ok());
  const core::ServiceModelPtr model = bed.controller().serviceAt(addr);
  ASSERT_NE(model, nullptr);

  // Hard per-resolve bound: deployTimeout * (retries + 1) plus slack for
  // the zero-latency completion hops.
  const double boundSeconds = 40.0 * 3 + 1.0;
  constexpr int kRequests = 12;
  struct Outcome {
    bool done = false;
    bool ok = false;
    SimTime issuedAt;
    SimTime doneAt;
  };
  std::vector<Outcome> outcomes(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    bed.sim().scheduleAt(SimTime::seconds(i * 2.0), [&bed, model, i,
                                                     &outcomes] {
      outcomes[i].issuedAt = bed.sim().now();
      bed.controller().dispatcher().resolve(
          model, clientAddress(i),
          [&bed, i, &outcomes](Result<core::Redirect> r) {
            outcomes[i].done = true;
            outcomes[i].ok = r.ok();
            outcomes[i].doneAt = bed.sim().now();
            if (r.ok()) {
              EXPECT_NE(r.value().instance.port, 0);
            }
          });
    });
  }
  bed.sim().runUntil(SimTime::seconds(2.0 * kRequests + boundSeconds + 30.0));

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(outcomes[i].done) << "resolve " << i << " hung (seed " << seed
                                  << ", " << plan.triggerCount()
                                  << " faults triggered)";
    // The testbed always has a cloud instance, so degradation must turn
    // every failure into a redirect.
    EXPECT_TRUE(outcomes[i].ok) << "resolve " << i << " failed";
    EXPECT_LE((outcomes[i].doneAt - outcomes[i].issuedAt).toSeconds(),
              boundSeconds)
        << "resolve " << i << " exceeded the retry-extended deadline";
  }
  EXPECT_EQ(bed.controller().dispatcher().pendingDeployments(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInvariant, ::testing::Range(1, 7));

// ---------------------------------------------- overload accounting ----
//
// Randomize the governor's knobs (budget, deploy cap, brownout threshold)
// and fire an open-loop burst of requests at seeded random sim times.
// Whatever mix of warm hits, cold deployments, budget expiries, brownout
// redirects and degraded fallbacks results, every request must be answered
// exactly once and the controller's books must balance.

class OverloadAccounting : public ::testing::TestWithParam<int> {};

TEST_P(OverloadAccounting, SubmittedEqualsResolvedPlusShedPlusFailed) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 811 + 29);

  TestbedOptions options;
  options.seed = seed;
  options.clusterMode = ClusterMode::kDockerOnly;
  auto& overload = options.controller.overload;
  overload.enabled = true;
  switch (rng.uniformInt(0, 2)) {
    case 0: overload.requestBudget = SimTime::zero(); break;
    case 1: overload.requestBudget = SimTime::millis(100); break;
    default: overload.requestBudget = SimTime::seconds(1.0); break;
  }
  overload.maxDeploysPerCluster = static_cast<int>(rng.uniformInt(0, 2));
  overload.brownoutShedThreshold = rng.chance(0.5) ? 0 : 8;
  overload.brownoutWindow = SimTime::seconds(5.0);
  Testbed bed(options);
  if (rng.chance(0.7)) bed.warmImageCache("nginx");
  const Endpoint addr(Ipv4(203, 0, 113, 10), 80);
  ASSERT_TRUE(bed.registerCatalogService("nginx", addr).ok());

  core::EdgeController& controller = bed.controller();
  constexpr int kTotal = 80;
  constexpr int kClients = 6;
  std::vector<int> callbackCount(kTotal, 0);
  for (int index = 0; index < kTotal; ++index) {
    const SimTime at =
        SimTime::millis(static_cast<std::int64_t>(rng.uniformInt(0, 5000)));
    bed.sim().scheduleAt(at, [&bed, &callbackCount, addr, index] {
      // Few distinct clients: later requests ride the installed flows or
      // hit the memorized flow.
      bed.requestCatalog(static_cast<std::size_t>(index % kClients), "nginx",
                         addr, "t",
                         [&callbackCount, index](Result<HttpExchange>) {
                           ++callbackCount[index];
                         });
    });
  }
  // Long enough for every deployment (cold pulls included) to settle.
  bed.sim().runUntil(SimTime::seconds(300.0));

  for (int i = 0; i < kTotal; ++i) {
    EXPECT_EQ(callbackCount[i], 1) << "request " << i;
  }
  // Every client's first request reaches the controller; a later one only
  // when its flow is not installed and no resolve is pending.
  EXPECT_GE(controller.requestsSubmitted(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_LE(controller.requestsSubmitted(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(controller.requestsSubmitted(),
            controller.requestsResolved() + controller.requestsShed() +
                controller.requestsFailed());
  // The controller's shed bucket is exactly the governor's budget-expired
  // count (deploy-cap refusals degrade, they don't shed).
  ASSERT_NE(bed.governor(), nullptr);
  EXPECT_EQ(controller.requestsShed(),
            bed.governor()->shedCount(overload::ShedReason::kBudgetExpired));
  // Shed answers complete before their background deployments settle; the
  // deployments must still drain rather than dangle.
  EXPECT_EQ(controller.dispatcher().pendingDeployments(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadAccounting, ::testing::Range(1, 7));

// ----------------------------------------------- handover continuity ----
//
// Randomized mobility traces crossed with randomized fault plans: clients
// wander between the EGS cell and the far-edge cell while the handover
// manager re-steers their flows, and the far-edge deploy path is salted
// with seeded faults (so handovers abort to the cloud mid-flight).
// Invariants, whatever the trace and plan:
//   * every issued request is answered exactly once, successfully -- a
//     handover never strands a flow;
//   * the handover books balance exactly:
//     handoversStarted == handoversCompleted + handoversAbortedToCloud;
//   * nothing dangles (no pending deployments, no in-flight handovers).

class HandoverContinuity : public ::testing::TestWithParam<int> {};

TEST_P(HandoverContinuity, NoRequestLostUnderMobilityAndFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  TestbedOptions options;
  options.seed = seed;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  options.controller.deployRetries = 1;
  options.controller.retryBackoff = SimTime::millis(100);
  // Odd seeds run with the governor on: handovers into a browned-out or
  // breaker-open cluster must degrade, never strand.
  options.controller.overload.enabled = (seed % 2 == 1);
  Testbed bed(options);

  Rng rng(seed * 613 + 11);

  // Seeded fault plan over the deploy paths a handover exercises.
  fault::FaultPlan plan(seed * 977 + 41);
  const std::vector<std::string> rpcTargets{
      "docker-far", "docker-far/pull", "docker-far/create",
      "docker-egs/scaleup"};
  const auto specCount = rng.uniformInt(1, 4);
  for (std::uint64_t i = 0; i < specCount; ++i) {
    fault::FaultSpec spec;
    if (rng.chance(0.3)) {
      spec.site = fault::FaultSite::kRegistryPull;
      spec.target = "far-edge";
    } else {
      spec.site = fault::FaultSite::kClusterRpc;
      spec.target = rpcTargets[rng.uniformInt(0, rpcTargets.size() - 1)];
    }
    spec.probability = rng.uniform(0.2, 1.0);
    spec.maxTriggers =
        rng.chance(0.4) ? static_cast<int>(rng.uniformInt(1, 3)) : -1;
    spec.skipFirst = static_cast<int>(rng.uniformInt(0, 2));
    spec.stall =
        SimTime::millis(static_cast<std::int64_t>(rng.uniformInt(0, 300)));
    plan.add(spec);
  }
  bed.injectFaults(plan);

  const Endpoint addr(Ipv4(203, 0, 113, 10), 80);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", addr).ok());

  // Random mobility traces: each client wanders between the two cells,
  // crossing the midpoint an arbitrary number of times within 40 s.
  mobility::MobilityModel model(
      {{"bs-egs", {0.0, 0.0}, "docker-egs"},
       {"bs-far", {1000.0, 0.0}, "docker-far"}});
  const std::size_t clientCount = 3 + seed % 3;
  for (std::size_t c = 0; c < clientCount; ++c) {
    workload::MobilityPath path;
    path.waypoints.push_back(
        {SimTime::zero(), {rng.uniform(0.0, 400.0), rng.uniform(-100.0, 100.0)}});
    const auto hops = rng.uniformInt(1, 4);
    double at = 0.0;
    for (std::uint64_t h = 0; h < hops; ++h) {
      at += rng.uniform(4.0, 12.0);
      path.waypoints.push_back({SimTime::seconds(at),
                                {rng.uniform(0.0, 1000.0),
                                 rng.uniform(-100.0, 100.0)}});
    }
    model.setPath(clientAddress(c), std::move(path));
  }
  mobility::AttachmentManager attachments(bed.sim(), model,
                                          {.scanPeriod = SimTime::millis(250)});
  mobility::HandoverManager handovers(bed.controller(), attachments);
  handovers.start();

  // Scattered requests from every client across the mobile phase: some hit
  // mid-handover, some land right after a re-steer.
  int issued = 0;
  int answered = 0;
  for (std::size_t c = 0; c < clientCount; ++c) {
    const auto requestCount = rng.uniformInt(3, 6);
    for (std::uint64_t r = 0; r < requestCount; ++r) {
      const double at = rng.uniform(0.5, 40.0);
      ++issued;
      bed.sim().scheduleAt(SimTime::seconds(at), [&bed, &answered, addr, c] {
        bed.requestCatalog(c, "nginx", addr, "mobile",
                           [&answered](Result<HttpExchange> result) {
                             ASSERT_TRUE(result.ok())
                                 << result.error().toString();
                             ++answered;
                           });
      });
    }
  }

  // Generous horizon: movement ends at ~40 s, a worst-case handover deploy
  // is bounded by deployTimeout * (retries + 1).
  bed.sim().runUntil(SimTime::seconds(200.0));

  EXPECT_EQ(answered, issued) << "a request was lost (seed " << seed << ", "
                              << plan.triggerCount() << " faults triggered)";
  const core::EdgeController& controller = bed.controller();
  EXPECT_EQ(controller.requestsFailed(), 0u);
  EXPECT_EQ(controller.handoversStarted(),
            controller.handoversCompleted() +
                controller.handoversAbortedToCloud())
      << "handover accounting out of balance (seed " << seed << ")";
  EXPECT_EQ(bed.controller().dispatcher().pendingDeployments(), 0u);
  // Every memorized flow that survived points at a live binding.
  for (std::size_t c = 0; c < clientCount; ++c) {
    const auto flow =
        bed.controller().flowMemory().lookup(clientAddress(c), addr);
    if (!flow.has_value()) continue;  // idled out, fine
    EXPECT_FALSE(flow->cluster.empty());
    EXPECT_NE(flow->instance.port, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandoverContinuity, ::testing::Range(1, 9));

// ------------------------------------------ rule-state convergence ----
//
// Randomized control-channel fault schedules (per-message loss in either
// direction, an outage window, an optional switch restart) crossed with
// randomized warm workloads.  The fault era is finite by construction
// (finite trigger budgets, bounded windows); after it ends the anti-entropy
// sweeper must converge the switch table back to exactly the redirect
// entries FlowMemory implies -- within two sweep periods, after which no
// further drift is ever detected -- and the acked-install books must
// balance: flowModsSent == flowModsAcked + flowModsTimedOut with nothing
// left pending.

class RuleStateConvergence : public ::testing::TestWithParam<int> {};

TEST_P(RuleStateConvergence, TablesConvergeToIntendedStateAfterFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  TestbedOptions options;
  options.seed = seed;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.reconcilePeriod = 1_s;
  // Idle timeouts far beyond the horizon: every divergence observed below
  // is fault-injected, never organic expiry.
  options.controller.switchIdleTimeout = SimTime::seconds(600.0);
  options.controller.memoryIdleTimeout = SimTime::seconds(600.0);
  Testbed bed(options);

  Rng rng(seed * 409 + 13);
  fault::FaultPlan plan(seed * 977 + 7);
  // Message loss, either direction, finite budget (the sweeps' own stats
  // round trips keep drawing, so the budget always drains).
  const auto lossSpecs = rng.uniformInt(1, 2);
  for (std::uint64_t i = 0; i < lossSpecs; ++i) {
    fault::FaultSpec loss;
    loss.site = fault::FaultSite::kControlChannelLoss;
    loss.target = rng.chance(0.5) ? "ovs/c2s" : "ovs/s2c";
    loss.probability = rng.uniform(0.3, 0.9);
    loss.maxTriggers = static_cast<int>(rng.uniformInt(2, 6));
    loss.skipFirst = static_cast<int>(rng.uniformInt(0, 2));
    plan.add(loss);
  }
  // A bounded full-blackout window.
  double faultsClearAt = 0.0;
  if (rng.chance(0.7)) {
    fault::FaultSpec outage;
    outage.site = fault::FaultSite::kControlChannelOutage;
    outage.target = "ovs";
    outage.at = SimTime::seconds(rng.uniform(2.0, 8.0));
    outage.duration = SimTime::seconds(rng.uniform(0.3, 2.0));
    plan.add(outage);
    faultsClearAt = (outage.at + outage.duration).toSeconds();
  }
  // An optional restart that wipes the whole table mid-run.
  if (rng.chance(0.7)) {
    fault::FaultSpec restart;
    restart.site = fault::FaultSite::kSwitchRestart;
    restart.target = "ovs";
    restart.at = SimTime::seconds(rng.uniform(2.0, 10.0));
    restart.duration = SimTime::millis(
        rng.chance(0.5) ? 0 : static_cast<std::int64_t>(rng.uniformInt(50, 300)));
    plan.add(restart);
    faultsClearAt =
        std::max(faultsClearAt, (restart.at + restart.duration).toSeconds());
  }
  bed.injectFaults(plan);

  // Warm workload: requests land before, during and after the fault era.
  const std::vector<std::string> kinds{"asm", "nginx"};
  std::vector<Endpoint> addresses;
  const auto serviceCount = rng.uniformInt(1, 2);
  for (std::uint64_t s = 0; s < serviceCount; ++s) {
    const Endpoint address(
        Ipv4(203, 0, 113, static_cast<std::uint8_t>(s + 1)), 80);
    const auto& kind = kinds[rng.uniformInt(0, kinds.size() - 1)];
    ASSERT_TRUE(bed.registerCatalogService(kind, address).ok());
    bed.warmImageCache(kind);
    addresses.push_back(address);
  }
  int issued = 0;
  int answered = 0;
  const auto requestCount = rng.uniformInt(8, 16);
  for (std::uint64_t i = 0; i < requestCount; ++i) {
    const double at = rng.uniform(0.2, 12.0);
    const auto client = rng.uniformInt(0, 5);
    const auto& address = addresses[rng.uniformInt(0, addresses.size() - 1)];
    ++issued;
    bed.sim().scheduleAt(SimTime::seconds(at),
                         [&bed, &answered, client, address] {
      HttpRequest req;
      bed.client(client).httpRequest(address, req,
                                     [&answered](Result<HttpExchange> r) {
                                       ASSERT_TRUE(r.ok())
                                           << r.error().toString();
                                       ++answered;
                                     });
    });
  }

  // Loss budgets drain within a handful of post-clear sweeps (each sweep
  // draws on both channel directions); give them room, then mark the drift
  // level two sweep periods later.  Any drift detected beyond that point
  // would mean the sweeper failed to converge.
  const double quietAt = std::max(faultsClearAt, 12.0) + 30.0;
  bed.sim().runUntil(SimTime::seconds(quietAt + 2.5));
  auto* reconciler = bed.controller().reconciler();
  ASSERT_NE(reconciler, nullptr);
  const auto driftAfterTwoSweeps =
      reconciler->stats().driftMissing + reconciler->stats().driftOrphans;

  bed.sim().runUntil(SimTime::seconds(100.0));
  EXPECT_EQ(answered, issued) << "a request was blackholed (seed " << seed
                              << ", " << plan.triggerCount()
                              << " faults triggered)";
  EXPECT_EQ(reconciler->stats().driftMissing + reconciler->stats().driftOrphans,
            driftAfterTwoSweeps)
      << "drift detected after the post-fault convergence point (seed "
      << seed << ")";

  // The switch table carries exactly the redirect entries FlowMemory
  // implies -- no lost rules, no orphans.
  std::set<std::string> intended;
  for (const auto& flow : bed.controller().intendedFlows(bed.ovs())) {
    for (const auto& entry : flow.entries) {
      intended.insert(std::to_string(entry.priority) + "|" +
                      entry.match.toString() + "|" +
                      openflow::actionsToString(entry.actions));
    }
  }
  std::set<std::string> installed;
  for (const auto& entry : bed.ovs().table().entries()) {
    if (entry.priority < core::kRedirectPriority) continue;
    installed.insert(std::to_string(entry.priority) + "|" +
                     entry.match.toString() + "|" +
                     openflow::actionsToString(entry.actions));
  }
  EXPECT_EQ(installed, intended) << "seed " << seed;

  // Install accounting balances at quiescence.
  const auto& ctrl = bed.controller();
  EXPECT_EQ(ctrl.flowModsSent(), ctrl.flowModsAcked() + ctrl.flowModsTimedOut())
      << "seed " << seed;
  EXPECT_EQ(bed.controller().pendingInstallCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleStateConvergence, ::testing::Range(1, 9));

}  // namespace
}  // namespace edgesim
