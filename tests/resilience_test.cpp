// Failure-path tests for the retrying, degrading deployment pipeline:
// phase retries with capped exponential backoff, the per-phase watchdog,
// cloud fallback for exhausted budgets (including coalesced waiters), and
// Global Scheduler quarantine with cooldown expiry.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/service_catalog.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/metrics_registry.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kSvc{Ipv4(203, 0, 113, 10), 80};

/// Scripted adapter whose pull can fail N times, fail forever, or hang.
class FlakyAdapter final : public ClusterAdapter {
 public:
  FlakyAdapter(Simulation& sim, std::string name, int rank)
      : ClusterAdapter(std::move(name), rank), sim_(sim) {}

  bool imageCached = false;
  bool created = false;
  bool running = false;
  bool cloud = false;
  SimTime pullDelay = 100_ms;
  SimTime createDelay = 10_ms;
  SimTime scaleUpDelay = 20_ms;
  SimTime readyDelay = 10_ms;
  int failPullsRemaining = 0;  // fail this many pulls, then succeed
  bool failAllPulls = false;
  bool hangPull = false;  // pull RPC never answers
  int pullCalls = 0;
  Endpoint instance{Ipv4(10, 0, 1, 1), 30000};

  bool isCloud() const override { return cloud; }

  ClusterView view(const ServiceModel&) const override {
    ClusterView v;
    v.name = name();
    v.distanceRank = distanceRank();
    v.isCloud = cloud;
    v.imageCached = imageCached;
    v.serviceCreated = created;
    if (running) v.readyInstances.push_back(instance);
    v.freeCapacity = 10;
    return v;
  }

  std::vector<Endpoint> readyInstances(const ServiceModel&) const override {
    if (running) return {instance};
    return {};
  }

  void pullImages(const ServiceModel&, Callback cb) override {
    ++pullCalls;
    if (hangPull) return;  // the watchdog has to save us
    sim_.schedule(pullDelay, [this, cb] {
      if (failAllPulls || failPullsRemaining > 0) {
        if (failPullsRemaining > 0) --failPullsRemaining;
        cb(makeError(Errc::kUnavailable, "registry down"));
        return;
      }
      imageCached = true;
      cb(Status());
    });
  }

  void createService(const ServiceModel&, Callback cb) override {
    sim_.schedule(createDelay, [this, cb] {
      created = true;
      cb(Status());
    });
  }

  void scaleUp(const ServiceModel& service, Callback cb) override {
    sim_.schedule(scaleUpDelay, [this, cb, name = service.uniqueName] {
      sim_.schedule(readyDelay, [this, name] {
        running = true;
        readinessChanged(name);  // as a real adapter does
      });
      cb(Status());
    });
  }

  void scaleDown(const ServiceModel&, Callback cb) override {
    running = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void removeService(const ServiceModel&, Callback cb) override {
    created = false;
    running = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void deleteImages(const ServiceModel&, Callback cb) override {
    imageCached = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void probeInstance(Endpoint probed, ProbeCallback cb) override {
    sim_.schedule(1_ms, [this, probed, cb] {
      cb(running && probed == instance);
    });
  }

 private:
  Simulation& sim_;
};

class ResilienceFixture : public ::testing::Test {
 protected:
  ResilienceFixture()
      : sim_(17),
        memory_(60_s),
        near_(sim_, "near", 0),
        cloud_(sim_, "cloud", 100) {
    cloud_.cloud = true;
    cloud_.imageCached = true;
    cloud_.created = true;
    cloud_.running = true;
    cloud_.instance = Endpoint(Ipv4(198, 51, 100, 1), 20000);

    ServiceCatalog catalog;
    const auto annotated = annotateServiceYaml(catalog.entry("nginx").yaml,
                                               kSvc, AnnotatorConfig{});
    auto model = buildServiceModel(annotated.value(), kSvc, catalog.profiles());
    model.value().tag = "nginx";
    model_ = std::make_shared<const ServiceModel>(std::move(model).value());
  }

  void makeDispatcher(DispatcherOptions options) {
    scheduler_ = makeProximityScheduler();
    dispatcher_ = std::make_unique<Dispatcher>(
        sim_, memory_, *scheduler_,
        std::vector<ClusterAdapter*>{&near_, &cloud_}, &recorder_, options,
        /*trace=*/nullptr, &registry_);
  }

  /// The dispatcher's per-cluster count `name` in the registry.
  std::uint64_t clusterCount(const std::string& name,
                             const std::string& cluster) const {
    return registry_.snapshot(0.0).counterValue(name, {{"cluster", cluster}});
  }

  /// resolve() wrapper that parks the result in `out`.
  void resolveInto(Ipv4 client, std::optional<Result<Redirect>>& out) {
    dispatcher_->resolve(model_, client,
                         [&out](Result<Redirect> r) { out = std::move(r); });
  }

  Simulation sim_;
  FlowMemory memory_;
  FlakyAdapter near_;
  FlakyAdapter cloud_;
  metrics::Recorder recorder_;
  telemetry::MetricsRegistry registry_;
  ServiceModelPtr model_;
  std::unique_ptr<GlobalScheduler> scheduler_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST(RetryPolicy, BackoffIsCappedExponential) {
  RetryPolicy policy;
  policy.initialBackoff = 200_ms;
  policy.multiplier = 2.0;
  policy.maxBackoff = 500_ms;
  EXPECT_EQ(policy.backoff(0), 200_ms);
  EXPECT_EQ(policy.backoff(1), 400_ms);
  EXPECT_EQ(policy.backoff(2), 500_ms);  // capped
  EXPECT_EQ(policy.backoff(10), 500_ms);
}

TEST_F(ResilienceFixture, RetriedPullEventuallySucceeds) {
  DispatcherOptions options;
  options.retry.maxRetries = 3;
  options.retry.initialBackoff = 100_ms;
  makeDispatcher(options);
  near_.failPullsRemaining = 2;

  std::optional<Result<Redirect>> got;
  resolveInto(Ipv4(10, 0, 2, 1), got);
  sim_.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().cluster, "near");
  EXPECT_FALSE(got->value().degraded);
  EXPECT_EQ(dispatcher_->retries(), 2u);
  EXPECT_EQ(dispatcher_->fallbacks(), 0u);
  EXPECT_EQ(near_.pullCalls, 3);
  EXPECT_EQ(clusterCount("edgesim_deploy_retries_total", "near"), 2u);
  EXPECT_EQ(clusterCount("edgesim_deploy_retries_total", "cloud"), 0u);
}

TEST_F(ResilienceFixture, ExhaustedRetriesFallBackToCloud) {
  DispatcherOptions options;
  options.retry.maxRetries = 2;
  options.retry.initialBackoff = 50_ms;
  makeDispatcher(options);
  near_.failAllPulls = true;

  const Ipv4 client(10, 0, 2, 1);
  std::optional<Result<Redirect>> got;
  resolveInto(client, got);
  sim_.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().cluster, "cloud");
  EXPECT_EQ(got->value().instance, cloud_.instance);
  EXPECT_TRUE(got->value().degraded);
  EXPECT_EQ(dispatcher_->retries(), 2u);
  EXPECT_EQ(dispatcher_->fallbacks(), 1u);
  EXPECT_EQ(clusterCount("edgesim_deploy_fallbacks_total", "near"), 1u);
  EXPECT_EQ(clusterCount("edgesim_deploy_retries_total", "near"), 2u);
  // Degraded redirects are not memorized: the next request re-tries the edge.
  EXPECT_FALSE(memory_.lookup(client, kSvc).has_value());
}

TEST_F(ResilienceFixture, CoalescedWaitersAllReceiveFallback) {
  DispatcherOptions options;
  options.retry.maxRetries = 1;
  options.retry.initialBackoff = 50_ms;
  makeDispatcher(options);
  near_.failAllPulls = true;

  std::optional<Result<Redirect>> first;
  std::optional<Result<Redirect>> second;
  resolveInto(Ipv4(10, 0, 2, 1), first);
  // Joins the same pending deployment while the first pull is in flight.
  sim_.schedule(30_ms, [&] { resolveInto(Ipv4(10, 0, 2, 2), second); });
  sim_.run();

  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  for (const auto* got : {&first, &second}) {
    ASSERT_TRUE((*got)->ok()) << (*got)->error().toString();
    EXPECT_EQ((*got)->value().cluster, "cloud");
    EXPECT_TRUE((*got)->value().degraded);
  }
  EXPECT_EQ(dispatcher_->deploymentsTriggered(), 1u);  // coalesced
  EXPECT_EQ(dispatcher_->fallbacks(), 2u);
  EXPECT_EQ(dispatcher_->pendingDeployments(), 0u);
}

TEST_F(ResilienceFixture, FallbackDisabledPropagatesError) {
  DispatcherOptions options;
  options.retry.maxRetries = 1;
  options.retry.initialBackoff = 50_ms;
  options.cloudFallback = false;
  makeDispatcher(options);
  near_.failAllPulls = true;

  std::optional<Result<Redirect>> got;
  resolveInto(Ipv4(10, 0, 2, 1), got);
  sim_.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kUnavailable);
  EXPECT_EQ(dispatcher_->fallbacks(), 0u);
}

TEST_F(ResilienceFixture, QuarantinedClusterSkippedUntilCooldownExpires) {
  DispatcherOptions options;
  options.retry.maxRetries = 1;
  options.retry.initialBackoff = 50_ms;
  options.quarantineCooldown = 30_s;
  makeDispatcher(options);
  near_.failAllPulls = true;

  // 1. Exhausted budget: degraded to the cloud, "near" quarantined.
  std::optional<Result<Redirect>> first;
  resolveInto(Ipv4(10, 0, 2, 1), first);
  sim_.run();
  ASSERT_TRUE(first.has_value() && first->ok());
  EXPECT_TRUE(first->value().degraded);
  EXPECT_EQ(dispatcher_->quarantines(), 1u);
  EXPECT_TRUE(scheduler_->quarantined("near", sim_.now()));
  EXPECT_EQ(clusterCount("edgesim_deploy_quarantines_total", "near"), 1u);
  EXPECT_EQ(clusterCount("edgesim_deploy_quarantines_total", "cloud"), 0u);

  // 2. "near" heals, but while quarantined the scheduler must not pick it:
  // the request is answered by the cloud through the normal decision path.
  near_.failAllPulls = false;
  const SimTime quarantinedAt = sim_.now();
  std::optional<Result<Redirect>> second;
  resolveInto(Ipv4(10, 0, 2, 2), second);
  sim_.run();
  ASSERT_TRUE(second.has_value() && second->ok());
  EXPECT_EQ(second->value().cluster, "cloud");
  EXPECT_FALSE(second->value().degraded);
  EXPECT_EQ(near_.pullCalls, 2);  // both from the first, failed deployment

  // 3. After the cooldown the cluster is eligible again and deploys fine.
  sim_.runUntil(quarantinedAt + 31_s);
  EXPECT_FALSE(scheduler_->quarantined("near", sim_.now()));
  std::optional<Result<Redirect>> third;
  resolveInto(Ipv4(10, 0, 2, 3), third);
  sim_.run();
  ASSERT_TRUE(third.has_value() && third->ok());
  EXPECT_EQ(third->value().cluster, "near");
  EXPECT_FALSE(third->value().degraded);
}

TEST_F(ResilienceFixture, PhaseWatchdogRetriesHungPull) {
  DispatcherOptions options;
  options.phaseTimeout = 1_s;
  options.retry.maxRetries = 2;
  options.retry.initialBackoff = 100_ms;
  makeDispatcher(options);
  near_.hangPull = true;  // the pull RPC never answers

  std::optional<Result<Redirect>> got;
  resolveInto(Ipv4(10, 0, 2, 1), got);
  sim_.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().cluster, "cloud");
  EXPECT_TRUE(got->value().degraded);
  EXPECT_EQ(dispatcher_->retries(), 2u);
  EXPECT_EQ(near_.pullCalls, 3);
  EXPECT_EQ(dispatcher_->pendingDeployments(), 0u);
}

TEST_F(ResilienceFixture, LateCallbackFromSupersededAttemptIsDropped) {
  DispatcherOptions options;
  options.phaseTimeout = 1_s;
  options.retry.maxRetries = 1;
  options.retry.initialBackoff = 100_ms;
  makeDispatcher(options);
  near_.pullDelay = 3_s;  // slower than the watchdog: every attempt expires

  std::optional<Result<Redirect>> got;
  int callbacks = 0;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1), [&](Result<Redirect> r) {
    ++callbacks;
    got = std::move(r);
  });
  sim_.run();  // runs past the late pull completions at 3 s and 4.1 s

  // The hung attempts' completions arrive with a stale epoch and must be
  // ignored: exactly one resolution, no dangling deployment.
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_TRUE(got->value().degraded);
  EXPECT_EQ(dispatcher_->retries(), 1u);
  EXPECT_EQ(dispatcher_->pendingDeployments(), 0u);
}

// ---- end-to-end: scripted fault plan against the full testbed -------------

TEST(ResilienceEndToEnd, TotalPullFaultOnEdgeDegradesRequestsToCloud) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.deployRetries = 1;
  options.controller.retryBackoff = 50_ms;
  Testbed bed(options);

  fault::FaultPlan plan(99);
  fault::FaultSpec spec;
  spec.site = fault::FaultSite::kClusterRpc;
  spec.target = "docker-egs/pull";  // 100% pull failure on the edge cluster
  plan.add(spec);
  bed.injectFaults(plan);

  const Endpoint addr{Ipv4(203, 0, 113, 10), 80};
  ASSERT_TRUE(bed.registerCatalogService("nginx", addr).ok());

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", addr, "faulted",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);

  // The client still gets an answer -- from the cloud instance.
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_GE(bed.controller().requestsDegraded(), 1u);
  EXPECT_GE(bed.controller().dispatcher().retries(), 1u);
  EXPECT_GE(bed.controller().dispatcher().fallbacks(), 1u);
  EXPECT_GE(plan.triggerCount(), 2u);  // initial attempt + retry
  EXPECT_EQ(bed.controller().requestsFailed(), 0u);

  // The injected fault must be visible in live telemetry: the retry, the
  // cloud fallback and the quarantine all show up as nonzero counters, and
  // the degraded request is counted by outcome.
  const telemetry::TelemetrySnapshot snap =
      bed.telemetry().snapshot(bed.sim().now().toSeconds());
  EXPECT_GE(snap.counterTotal("edgesim_deploy_retries_total"), 1u);
  EXPECT_GE(snap.counterTotal("edgesim_deploy_fallbacks_total"), 1u);
  EXPECT_GE(snap.counterTotal("edgesim_deploy_quarantines_total"), 1u);
  EXPECT_GE(snap.counterValue("edgesim_requests_total",
                              {{"outcome", "degraded"}}),
            1u);
}

}  // namespace
}  // namespace edgesim::core
