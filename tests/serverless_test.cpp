// Tests for the serverless (Wasm-style FaaS) extension: the function
// lifecycle (fetch/compile/activate/evict), the ServerlessAdapter mapping
// of fig. 4 phases, transparent access backed by functions, and the
// container-vs-serverless cold-start gap the paper's future work targets.
#include <gtest/gtest.h>

#include <optional>

#include "core/testbed.hpp"
#include "serverless/faas_runtime.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;
using core::ClusterMode;
using core::Testbed;
using core::TestbedOptions;
using serverless::FaasParams;
using serverless::FaasRuntime;
using serverless::FunctionSpec;

const Endpoint kAddr{Ipv4(203, 0, 113, 10), 80};

// ------------------------------------------------------------- runtime ----

class FaasFixture : public ::testing::Test {
 protected:
  FaasFixture()
      : sim_(91),
        net_(sim_),
        node_(net_, "edge", Ipv4(10, 0, 1, 1), Mac(0x10)),
        client_(net_, "client", Ipv4(10, 0, 0, 1), Mac(0x01)),
        runtime_(sim_, node_) {
    net_.connect(client_, node_, 1_ms, 1_Gbps);
    spec_.name = "fn";
    spec_.profile.requestCompute = SimTime::micros(300);
  }

  Simulation sim_;
  Network net_;
  Host node_;
  Host client_;
  FaasRuntime runtime_;
  FunctionSpec spec_;
};

TEST_F(FaasFixture, LifecyclePhases) {
  EXPECT_FALSE(runtime_.moduleCached("fn"));
  std::optional<Status> fetched;
  runtime_.fetchModule(spec_, [&](Status s) { fetched = s; });
  sim_.run();
  ASSERT_TRUE(fetched.has_value() && fetched->ok());
  EXPECT_TRUE(runtime_.moduleCached("fn"));
  // ~80 ms RTT + 2 MiB at 400 Mbps (~42 ms).
  EXPECT_GT(sim_.now(), 100_ms);
  EXPECT_LT(sim_.now(), 200_ms);

  std::optional<Status> deployed;
  runtime_.deployFunction(spec_, [&](Status s) { deployed = s; });
  sim_.run();
  ASSERT_TRUE(deployed.has_value() && deployed->ok());
  EXPECT_TRUE(runtime_.deployed("fn"));

  const SimTime beforeActivate = sim_.now();
  std::optional<Result<Endpoint>> endpoint;
  runtime_.activate("fn", [&](Result<Endpoint> r) { endpoint = std::move(r); });
  sim_.run();
  ASSERT_TRUE(endpoint.has_value() && endpoint->ok());
  // Cold start is milliseconds, not hundreds of them.
  EXPECT_LT((sim_.now() - beforeActivate).toMillis(), 20.0);
  EXPECT_EQ(runtime_.coldStarts(), 1u);
  EXPECT_EQ(runtime_.activeEndpoints("fn").size(), 1u);
}

TEST_F(FaasFixture, PhasePreconditionsEnforced) {
  std::optional<Status> deployed;
  runtime_.deployFunction(spec_, [&](Status s) { deployed = s; });
  sim_.run();
  ASSERT_TRUE(deployed.has_value());
  EXPECT_EQ(deployed->error().code, Errc::kFailedPrecondition);

  std::optional<Result<Endpoint>> activated;
  runtime_.activate("fn", [&](Result<Endpoint> r) { activated = std::move(r); });
  sim_.run();
  ASSERT_TRUE(activated.has_value());
  EXPECT_FALSE(activated->ok());
}

TEST_F(FaasFixture, ActivatedFunctionServesHttp) {
  runtime_.fetchModule(spec_, [](Status) {});
  sim_.run();
  runtime_.deployFunction(spec_, [](Status) {});
  sim_.run();
  std::optional<Endpoint> endpoint;
  runtime_.activate("fn", [&](Result<Endpoint> r) {
    ASSERT_TRUE(r.ok());
    endpoint = r.value();
  });
  sim_.run();
  ASSERT_TRUE(endpoint.has_value());

  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(*endpoint, HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->value().response.status, 200);
}

TEST_F(FaasFixture, SecondActivationIsWarm) {
  runtime_.fetchModule(spec_, [](Status) {});
  sim_.run();
  runtime_.deployFunction(spec_, [](Status) {});
  sim_.run();
  runtime_.activate("fn", [](Result<Endpoint>) {});
  sim_.run();
  const SimTime before = sim_.now();
  runtime_.activate("fn", [](Result<Endpoint>) {});
  sim_.run();
  EXPECT_EQ(sim_.now(), before);  // already active: no cold start
  EXPECT_EQ(runtime_.coldStarts(), 1u);
}

TEST_F(FaasFixture, IdleEvictionScalesToZeroAndReactivates) {
  FaasParams params;
  params.idleEviction = 2_s;
  FaasRuntime evicting(sim_, node_, params);
  evicting.fetchModule(spec_, [](Status) {});
  sim_.run();
  evicting.deployFunction(spec_, [](Status) {});
  sim_.run();
  evicting.activate("fn", [](Result<Endpoint>) {});
  sim_.run();  // runs through eviction timer
  EXPECT_EQ(evicting.evictions(), 1u);
  EXPECT_TRUE(evicting.activeEndpoints("fn").empty());
  // The compiled module survives; reactivation is just a cold start.
  EXPECT_TRUE(evicting.deployed("fn"));
  std::optional<Result<Endpoint>> again;
  evicting.activate("fn", [&](Result<Endpoint> r) { again = std::move(r); });
  sim_.run();
  ASSERT_TRUE(again.has_value() && again->ok());
  EXPECT_EQ(evicting.coldStarts(), 2u);
}

TEST_F(FaasFixture, DeactivateAndRemove) {
  runtime_.fetchModule(spec_, [](Status) {});
  sim_.run();
  runtime_.deployFunction(spec_, [](Status) {});
  sim_.run();
  runtime_.activate("fn", [](Result<Endpoint>) {});
  sim_.run();
  const auto port = runtime_.activeEndpoints("fn").front().port;
  runtime_.deactivate("fn", [](Status) {});
  sim_.run();
  EXPECT_FALSE(node_.listening(port));
  EXPECT_TRUE(runtime_.deployed("fn"));
  EXPECT_GT(runtime_.moduleCacheBytes().value, 0u);
  runtime_.removeFunction("fn", [](Status) {});
  sim_.run();
  EXPECT_FALSE(runtime_.deployed("fn"));
  EXPECT_EQ(runtime_.moduleCacheBytes().value, 0u);
}

// ------------------------------------------------------------- adapter ----

TEST(ServerlessAdapterTest, SupportHeuristics) {
  core::ServiceCatalog catalog;
  auto build = [&](const std::string& key) {
    const auto annotated = core::annotateServiceYaml(
        catalog.entry(key).yaml, kAddr, core::AnnotatorConfig{});
    return core::buildServiceModel(annotated.value(), kAddr,
                                   catalog.profiles())
        .value();
  };
  EXPECT_TRUE(core::ServerlessAdapter::supportsService(build("asm")));
  EXPECT_TRUE(core::ServerlessAdapter::supportsService(build("nginx")));
  // TensorFlow Serving does not fit a Wasm function.
  EXPECT_FALSE(core::ServerlessAdapter::supportsService(build("resnet")));
  // Multi-container apps don't either.
  EXPECT_FALSE(core::ServerlessAdapter::supportsService(build("nginx-py")));
}

TEST(ServerlessIntegration, TransparentAccessOverFunctions) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kServerlessOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kAddr).ok());

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kAddr, "first",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  // Fetch + compile + cold start + handshake: well under the container
  // path, even with a COLD module cache.
  EXPECT_LT(got->value().timings.timeTotal().toSeconds(), 0.4);
  EXPECT_EQ(bed.faasRuntime()->coldStarts(), 1u);
}

TEST(ServerlessIntegration, ColdStartGapVsContainers) {
  // Same service, both paths warm at the artifact level (image cached /
  // module compiled), instance scaled to zero: the serverless first
  // response is an order of magnitude faster.
  double containerFirst = -1;
  {
    TestbedOptions options;
    options.clusterMode = ClusterMode::kDockerOnly;
    Testbed bed(options);
    ASSERT_TRUE(bed.registerCatalogService("nginx", kAddr).ok());
    bed.warmImageCache("nginx");
    bed.requestCatalog(0, "nginx", kAddr, "t", [&](Result<HttpExchange> r) {
      ASSERT_TRUE(r.ok());
      containerFirst = r.value().timings.timeTotal().toSeconds();
    });
    bed.sim().runUntil(30_s);
  }
  double faasFirst = -1;
  {
    TestbedOptions options;
    options.clusterMode = ClusterMode::kServerlessOnly;
    Testbed bed(options);
    ASSERT_TRUE(bed.registerCatalogService("nginx", kAddr).ok());
    // Pre-stage module + compile (the analogue of a cached image +
    // created containers), leave it deactivated.
    const auto* model = bed.controller().serviceAt(kAddr).get();
    auto spec = core::ServerlessAdapter::toFunctionSpec(*model);
    bed.faasRuntime()->fetchModule(spec, [](Status) {});
    bed.sim().runUntil(1_s);
    bed.faasRuntime()->deployFunction(spec, [](Status) {});
    bed.sim().runUntil(2_s);
    bed.requestCatalog(0, "nginx", kAddr, "t", [&](Result<HttpExchange> r) {
      ASSERT_TRUE(r.ok());
      faasFirst = r.value().timings.timeTotal().toSeconds();
    });
    bed.sim().runUntil(30_s);
  }
  ASSERT_GT(containerFirst, 0);
  ASSERT_GT(faasFirst, 0);
  EXPECT_GT(containerFirst / faasFirst, 5.0);  // Gackstatter et al.'s gap
}

TEST(ServerlessIntegration, SideBySideSchedulerPrefersListedOrder) {
  // Docker and FaaS side by side at the same distance rank: the proximity
  // scheduler takes the first listed deployable cluster (Docker), and the
  // FaaS runtime can still be driven explicitly -- both serve the same
  // service address transparently.
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.serverlessEdge = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(bed.dockerEngine().runtime().startedCount(), 1u);

  // Explicitly deploy the same service onto the FaaS runtime too.
  const core::ServiceModelPtr model = bed.controller().serviceAt(kAddr);
  std::optional<Result<Endpoint>> faas;
  bed.controller().dispatcher().ensureReady(
      model, *bed.serverlessAdapter(),
      [&](Result<Endpoint> r) { faas = std::move(r); });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(faas.has_value());
  ASSERT_TRUE(faas->ok()) << faas->error().toString();
  EXPECT_EQ(bed.serverlessAdapter()->readyInstances(*model).size(), 1u);
}

}  // namespace
}  // namespace edgesim
