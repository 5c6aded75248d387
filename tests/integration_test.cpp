// End-to-end integration tests on the full testbed (fig. 8): transparent
// redirection, on-demand deployment with and without waiting, FlowMemory
// reuse, idle scale-down, cloud forwarding, the Docker-vs-K8s timing shape
// of fig. 11, and failure paths.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "core/testbed.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};
const Endpoint kAsmAddr{Ipv4(203, 0, 113, 11), 80};
const Endpoint kResnetAddr{Ipv4(203, 0, 113, 12), 80};

TEST(Integration, FirstRequestDockerCachedUnderOneSecond) {
  // The paper's headline: on-demand deployment with waiting, image cached,
  // Docker cluster -> first response in ~0.5 s for nginx.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "first",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  const double total = got->value().timings.timeTotal().toSeconds();
  EXPECT_GT(total, 0.3);
  EXPECT_LT(total, 1.0);  // "as low as 0.5 seconds"
  EXPECT_EQ(bed.controller().requestsResolved(), 1u);
}

TEST(Integration, FirstRequestK8sCachedAroundThreeSeconds) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kK8sOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "first",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  const double total = got->value().timings.timeTotal().toSeconds();
  EXPECT_GT(total, 1.8);
  EXPECT_LT(total, 4.5);  // "around three seconds"
}

TEST(Integration, DockerVsK8sShapeMatchesFig11) {
  // Same service, same cached image: K8s must cost a small multiple of
  // Docker (the fig. 11 shape), not the other way round.
  auto measure = [](ClusterMode mode) {
    TestbedOptions options;
    options.clusterMode = mode;
    Testbed bed(options);
    EXPECT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
    bed.warmImageCache("nginx");
    double total = -1;
    bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         total = r.value().timings.timeTotal().toSeconds();
                       });
    bed.sim().runUntil(60_s);
    return total;
  };
  const double docker = measure(ClusterMode::kDockerOnly);
  const double k8s = measure(ClusterMode::kK8sOnly);
  ASSERT_GT(docker, 0);
  ASSERT_GT(k8s, 0);
  EXPECT_GT(k8s / docker, 2.0);
  EXPECT_LT(k8s / docker, 12.0);
}

TEST(Integration, RedirectionIsTransparentToClient) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(got.has_value() && got->ok());
  // The client only ever saw the registered cloud address; the edge
  // instance endpoint differs from it (rewriting happened) yet the
  // connection key at the client was the service address. Verify the edge
  // served it: the EGS runtime started a container, and the response came
  // back far faster than a cloud round trip would allow after deployment.
  EXPECT_GE(bed.dockerEngine().runtime().startedCount(), 1u);
}

TEST(Integration, SecondRequestServedWarmAndFast) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<double> first;
  std::optional<double> second;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       first = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().schedule(5_s, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         second = r.value().timings.timeTotal().toSeconds();
                       });
  });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Warm path: flows already installed (or re-installed from FlowMemory);
  // ~1 ms total (fig. 16) vs. hundreds of ms for the first request.
  EXPECT_LT(*second, 0.05);
  EXPECT_GT(*first / *second, 20.0);
}

TEST(Integration, TenThousandClientsGetDistinctAddresses) {
  // Were addresses to wrap every 256 clients, client 9999 would share
  // 10.0.2.16 with client 15 and one of the two would go unanswered.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.clientCount = 10'000;
  Testbed bed(options);
  std::set<Ipv4> addresses;
  for (std::size_t i = 0; i < bed.clientCount(); ++i) {
    addresses.insert(bed.client(i).ip());
  }
  EXPECT_EQ(addresses.size(), 10'000u);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::map<std::size_t, Result<HttpExchange>> got;
  for (const std::size_t client : {std::size_t{15}, std::size_t{9'999}}) {
    bed.requestCatalog(client, "nginx", kNginxAddr, "wrap",
                       [&got, client](Result<HttpExchange> r) {
                         got.emplace(client, std::move(r));
                       });
  }
  bed.sim().runUntil(30_s);

  ASSERT_EQ(got.size(), 2u);
  for (const auto& [client, result] : got) {
    EXPECT_TRUE(result.ok()) << "client " << client << ": "
                             << result.error().toString();
  }
  EXPECT_EQ(bed.controller().requestsResolved(), 2u);
}

TEST(Integration, DifferentClientReusesRunningInstance) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  bed.requestCatalog(0, "nginx", kNginxAddr, "first");
  std::optional<double> other;
  bed.sim().schedule(5_s, [&] {
    bed.requestCatalog(7, "nginx", kNginxAddr, "other",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         other = r.value().timings.timeTotal().toSeconds();
                       });
  });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(other.has_value());
  // New client, no memorized flow -> packet-in -> scheduler finds the
  // running instance -> fast redirect without a new deployment.
  EXPECT_LT(*other, 0.1);
  EXPECT_EQ(bed.dockerEngine().runtime().startedCount(), 1u);
}

TEST(Integration, UnregisteredServiceForwardedToCloud) {
  Testbed bed;
  // The cloud host itself answers on port 8080 (some unregistered app).
  bed.cloud().listen(8080, [](const HttpRequest&, HttpRespond respond) {
    HttpResponse resp;
    resp.body = "cloud";
    respond(resp);
  });
  std::optional<Result<HttpExchange>> got;
  bed.request(0, Endpoint(bed.cloud().ip(), 8080), "cloud",
              HttpMethod::kGet, Bytes{0},
              [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(10_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().response.body, "cloud");
  // WAN RTTs dominate: ~2 x 25 ms x (SYN + request) plus controller hop.
  EXPECT_GT(got->value().timings.timeTotal().toSeconds(), 0.09);
}

TEST(Integration, WithoutWaitingUsesFarEdgeThenMigrates) {
  // fig. 3: latency-first scheduler, instance running at the far edge,
  // nothing at the near edge.  First request -> far instance (fast);
  // background deployment near; later request -> near instance.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  options.controller.scheduler = "latency-first";
  // Short memory timeout so the migration can happen quickly.
  options.controller.memoryIdleTimeout = 2_s;
  options.controller.switchIdleTimeout = 1_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Start an instance at the far edge first (e.g. deployed for another
  // client earlier).
  const ServiceModelPtr model = bed.controller().serviceAt(kNginxAddr);
  ASSERT_NE(model, nullptr);
  bool farReady = false;
  bed.controller().dispatcher().ensureReady(
      model, *bed.farEdgeAdapter(),
      [&](Result<Endpoint> r) { farReady = r.ok(); });
  bed.sim().runUntil(5_s);
  ASSERT_TRUE(farReady);

  std::optional<double> first;
  bed.requestCatalog(0, "nginx", kNginxAddr, "first",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       first = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(10_s);
  ASSERT_TRUE(first.has_value());
  // Served by the far instance immediately (~10 ms RTT), NOT after a
  // sub-second deployment wait.
  EXPECT_LT(*first, 0.1);

  // Background deployment landed on the near EGS.
  bed.sim().runUntil(15_s);
  EXPECT_GE(bed.dockerEngine().runtime().startedCount(), 1u);

  // After the memorized flow expires, the same client is redirected to the
  // (now running) near instance.
  std::optional<double> later;
  bed.sim().schedule(1_s, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "later",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         later = r.value().timings.timeTotal().toSeconds();
                       });
  });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(later.has_value());
  EXPECT_LT(*later, 0.05);  // near edge: ~2 ms RTT, no deployment
}

TEST(Integration, MigrationHappensAsSoonAsBestInstanceRuns) {
  // §IV-A2: "future requests to the same service are redirected to this
  // optimal location AS SOON AS the new instance is running" -- without
  // waiting for the controller's memory timeout.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  options.controller.scheduler = "latency-first";
  options.controller.memoryIdleTimeout = 600_s;  // would pin for 10 min
  options.controller.switchIdleTimeout = 1_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  const ServiceModelPtr model = bed.controller().serviceAt(kNginxAddr);
  bool farReady = false;
  bed.controller().dispatcher().ensureReady(
      model, *bed.farEdgeAdapter(),
      [&](Result<Endpoint> r) { farReady = r.ok(); });
  bed.sim().runUntil(5_s);
  ASSERT_TRUE(farReady);

  bed.requestCatalog(0, "nginx", kNginxAddr, "first");
  bed.sim().runUntil(10_s);  // background deployment lands on the near EGS
  EXPECT_EQ(bed.controller().migrations(), 1u);

  // The client's memorized flow to the far edge was dropped despite the
  // long memory timeout; the next request re-schedules onto the near EGS.
  std::optional<Result<HttpExchange>> second;
  bed.requestCatalog(0, "nginx", kNginxAddr, "second",
                     [&](Result<HttpExchange> r) { second = std::move(r); });
  bed.sim().runUntil(20_s);
  ASSERT_TRUE(second.has_value() && second->ok());
  const auto flow =
      bed.controller().flowMemory().lookup(bed.client(0).ip(), kNginxAddr);
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(flow->cluster, "docker-egs");
  EXPECT_EQ(flow->instance.ip, bed.egs().ip());
}

TEST(Integration, IdleServiceScaledDownAndRedeployedOnDemand) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 3_s;
  options.controller.switchIdleTimeout = 1_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<bool> firstOk;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { firstOk = r.ok(); });
  bed.sim().runUntil(20_s);  // idle >> memoryIdleTimeout by now
  ASSERT_TRUE(firstOk.has_value() && *firstOk);
  EXPECT_GE(bed.controller().scaleDowns(), 1u);
  // Instance is gone from the edge.
  ASSERT_NE(bed.dockerAdapter(), nullptr);
  const ServiceModel* model = bed.controller().serviceAt(kNginxAddr).get();
  EXPECT_TRUE(bed.dockerAdapter()->readyInstances(*model).empty());

  // A new request triggers a fresh on-demand scale-up (not a full create:
  // the containers still exist, stopped).
  std::optional<double> again;
  bed.requestCatalog(3, "nginx", kNginxAddr, "again",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       again = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(40_s);
  ASSERT_TRUE(again.has_value());
  EXPECT_GT(*again, 0.2);  // paid a scale-up again
  EXPECT_LT(*again, 1.5);
}

TEST(Integration, UncachedImagePullDominatesFirstRequest) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  // NOTE: no warmImageCache -- the pull phase runs.

  std::optional<double> total;
  bed.requestCatalog(0, "nginx", kNginxAddr, "cold",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       total = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(total.has_value());
  EXPECT_GT(*total, 3.0);  // pull of 135 MiB / 6 layers from "Docker Hub"
  EXPECT_EQ(bed.registry().pullCount(), 1u);
}

TEST(Integration, ResnetSlowestService) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("resnet", kResnetAddr).ok());
  ASSERT_TRUE(bed.registerCatalogService("asm", kAsmAddr).ok());
  bed.warmImageCache("resnet");
  bed.warmImageCache("asm");

  std::optional<double> resnetTotal;
  std::optional<double> asmTotal;
  bed.requestCatalog(0, "resnet", kResnetAddr, "resnet",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       resnetTotal = r.value().timings.timeTotal().toSeconds();
                     });
  bed.requestCatalog(1, "asm", kAsmAddr, "asm",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       asmTotal = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(resnetTotal.has_value());
  ASSERT_TRUE(asmTotal.has_value());
  EXPECT_GT(*resnetTotal, *asmTotal * 3);  // model load dominates
  EXPECT_GT(*resnetTotal, 3.0);
}

TEST(Integration, ConcurrentFirstRequestsCoalesceDeployment) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  int completed = 0;
  for (std::size_t c = 0; c < 10; ++c) {
    bed.requestCatalog(c, "nginx", kNginxAddr, "burst",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok()) << r.error().toString();
                         ++completed;
                       });
  }
  bed.sim().runUntil(30_s);
  EXPECT_EQ(completed, 10);
  // One deployment served the whole burst.
  EXPECT_EQ(bed.dockerEngine().runtime().startedCount(), 1u);
  EXPECT_EQ(bed.controller().dispatcher().deploymentsTriggered(), 1u);
}

TEST(Integration, RegistryDownFailsRequestEventually) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  // Disable every degradation path (cloud fallback, quarantine-then-cloud)
  // so the registry outage must surface as a failed request; the
  // degradation paths have their own tests.
  options.controller.cloudFallback = false;
  options.controller.quarantineCooldown = SimTime::zero();
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.registry().setAvailable(false);  // no cache, no registry

  std::optional<Result<HttpExchange>> got;
  RequestOptions ro;  // default SYN retry budget ~63 s
  HttpRequest req;
  bed.client(0).httpRequest(kNginxAddr, req,
                            [&](Result<HttpExchange> r) { got = std::move(r); },
                            ro);
  bed.sim().runUntil(150_s);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok());
  EXPECT_GE(bed.controller().requestsFailed(), 1u);
}

TEST(Integration, PerPhaseMetricsRecorded) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  // Cold cache: all three phases run.
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(60_s);

  const auto* pull = bed.recorder().series("nginx/docker-egs/pull");
  const auto* create = bed.recorder().series("nginx/docker-egs/create");
  const auto* wait = bed.recorder().series("nginx/docker-egs/wait");
  ASSERT_NE(pull, nullptr);
  ASSERT_NE(create, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(pull->median(), 1.0);     // WAN pull of nginx
  EXPECT_LT(create->median(), 0.5);   // ~100 ms class
  EXPECT_GT(wait->median(), 0.0);
}

TEST(Integration, InstanceRoundRobinSpreadsClientsAcrossReplicas) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kK8sOnly;
  options.controller.instancePolicy = "instance-round-robin";
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Bring the service up and scale the Deployment to 3 replicas.
  std::optional<bool> warmed;
  bed.requestCatalog(0, "nginx", kNginxAddr, "warmup",
                     [&](Result<HttpExchange> r) { warmed = r.ok(); });
  bed.sim().runUntil(20_s);
  ASSERT_TRUE(warmed.has_value() && *warmed);
  const ServiceModel* model = bed.controller().serviceAt(kNginxAddr).get();
  bed.k8sCluster()->scaleDeployment(model->uniqueName, 3);
  bed.sim().runUntil(40_s);
  ASSERT_EQ(bed.k8sAdapter()->readyInstances(*model).size(), 3u);

  // Nine fresh clients: the Local Scheduler rotates them over the
  // replicas; FlowMemory then pins each client to its instance.
  int done = 0;
  for (std::size_t c = 1; c <= 9; ++c) {
    bed.requestCatalog(c, "nginx", kNginxAddr, "fanout",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         ++done;
                       });
  }
  bed.sim().runUntil(60_s);
  EXPECT_EQ(done, 9);
  std::map<Endpoint, int> perInstance;
  for (std::size_t c = 1; c <= 9; ++c) {
    const auto flow =
        bed.controller().flowMemory().lookup(bed.client(c).ip(), kNginxAddr);
    ASSERT_TRUE(flow.has_value());
    ++perInstance[flow->instance];
  }
  ASSERT_EQ(perInstance.size(), 3u);
  for (const auto& [instance, count] : perInstance) EXPECT_EQ(count, 3);
}

TEST(Integration, EdgeLinkFailureFailsOverAfterRecovery) {
  // The EGS link dies right after the first request's deployment started;
  // the held SYN can't reach the edge, but TCP retransmission picks the
  // path back up once the link recovers.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // The EGS uplink is the OVS port toward the EGS host; take it down at
  // t=0.2 s (mid-deployment) and restore at t=4 s.
  PortId egsPort = kInvalidPort;
  for (PortId p = 0; p < bed.ovs().portCount(); ++p) {
    if (bed.net().peer(bed.ovs(), p) == &bed.egs()) egsPort = p;
  }
  ASSERT_NE(egsPort, kInvalidPort);
  bed.sim().schedule(200_ms, [&] { bed.net().setLinkUp(bed.ovs(), egsPort, false); });
  bed.sim().schedule(4_s, [&] { bed.net().setLinkUp(bed.ovs(), egsPort, true); });

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  // Succeeded, but only after the link came back.
  EXPECT_GE(got->value().timings.timeTotal(), 4_s);
  EXPECT_GE(got->value().timings.synRetransmits, 1);
}

TEST(Integration, HierarchicalTwoSwitchTopology) {
  // fig. 3's hierarchy: client -- gNB switch -- aggregation switch --
  // {edge host, cloud}.  The controller manages both switches; the first
  // packet is held at the gNB, the aggregation switch learns a coarse
  // route for the rewritten destination, and the response flows back
  // through both switches transparently.
  using namespace container;
  Simulation sim(101);
  Network net(sim);
  Host client(net, "client", Ipv4(10, 0, 2, 1), Mac(0x01));
  Host edge(net, "edge", Ipv4(10, 0, 1, 1), Mac(0x10));
  Host cloudHost(net, "cloud", Ipv4(198, 51, 100, 1), Mac(0xC0));
  openflow::OpenFlowSwitch gnb(net, "gnb");
  openflow::OpenFlowSwitch agg(net, "agg");

  const auto clientPorts = net.connect(client, gnb, 1_ms, 1_Gbps);
  const auto trunkPorts = net.connect(gnb, agg, 2_ms, 10_Gbps);
  const auto edgePorts = net.connect(agg, edge, 1_ms, 10_Gbps);
  const auto cloudPorts = net.connect(agg, cloudHost, 25_ms, 1_Gbps);

  LayerStore store;
  ContainerdRuntime runtime(sim, edge, store);
  ImagePuller puller(sim, store);
  Registry registry("hub", publicRegistryProfile());
  docker::DockerEngine engine(sim, runtime, puller, &registry);

  ServiceCatalog catalog;
  catalog.publishImages(registry);
  catalog.seedImages("nginx", store);

  DockerAdapter dockerAdapter(sim, "docker-edge", 0, engine);
  CloudAdapter cloudAdapter(sim, "cloud", 100, cloudHost, catalog.profiles());

  ControllerOptions controllerOptions;
  EdgeController controller(sim, controllerOptions,
                            {&dockerAdapter, &cloudAdapter},
                            catalog.profiles());
  ASSERT_TRUE(controller
                  .registerService(catalog.entry("nginx").yaml, kNginxAddr,
                                   "nginx")
                  .ok());

  SwitchTopology gnbTopo;
  gnbTopo.hostPorts[client.ip()] = clientPorts.portB;
  gnbTopo.hostPorts[edge.ip()] = trunkPorts.portA;   // via the trunk
  gnbTopo.hostPorts[cloudHost.ip()] = trunkPorts.portA;
  gnbTopo.uplinkPort = trunkPorts.portA;
  controller.attachSwitch(gnb, gnbTopo);

  SwitchTopology aggTopo;
  aggTopo.hostPorts[client.ip()] = trunkPorts.portB;  // back down the trunk
  aggTopo.hostPorts[edge.ip()] = edgePorts.portA;
  aggTopo.hostPorts[cloudHost.ip()] = cloudPorts.portA;
  aggTopo.uplinkPort = cloudPorts.portA;
  controller.attachSwitch(agg, aggTopo);

  std::optional<Result<HttpExchange>> got;
  HttpRequest req;
  client.httpRequest(kNginxAddr, req,
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  sim.runUntil(30_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(runtime.startedCount(), 1u);
  // Sub-second first response even across two switches.
  EXPECT_LT(got->value().timings.timeTotal().toSeconds(), 1.2);
  // The gNB held the first packet; the aggregation switch routed the
  // rewritten packet over its background reachability flows without ever
  // consulting the controller.
  EXPECT_GE(gnb.packetInCount(), 1u);
  EXPECT_EQ(agg.packetInCount(), 0u);

  // 30 s later the gNB's short-lived flow has idled out, but the
  // controller's FlowMemory remembers the client: one packet-in, an
  // immediate re-redirect to the same instance, no new deployment.
  std::optional<Result<HttpExchange>> warm;
  client.httpRequest(kNginxAddr, req,
                     [&](Result<HttpExchange> r) { warm = std::move(r); });
  sim.runUntil(31_s);
  ASSERT_TRUE(warm.has_value() && warm->ok());
  EXPECT_LT(warm->value().timings.timeTotal().toSeconds(), 0.05);
  EXPECT_EQ(runtime.startedCount(), 1u);  // still the original instance
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run = [] {
    TestbedOptions options;
    options.clusterMode = ClusterMode::kDockerOnly;
    options.seed = 42;
    Testbed bed(options);
    EXPECT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
    bed.warmImageCache("nginx");
    double total = -1;
    bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                       [&](Result<HttpExchange> r) {
                         ASSERT_TRUE(r.ok());
                         total = r.value().timings.timeTotal().toSeconds();
                       });
    bed.sim().runUntil(30_s);
    return total;
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace edgesim::core
