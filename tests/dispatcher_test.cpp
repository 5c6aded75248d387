// Unit tests for the Dispatcher (fig. 7) against a scripted mock cluster
// adapter: phase ordering (Pull -> Create -> Scale-Up -> wait), request
// coalescing, FlowMemory fast path, BEST background deployments, cloud
// fallback, and deployment timeout; then the readiness wait on the port-poll
// grid, against the mock and against the testbed's real adapters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/service_catalog.hpp"
#include "core/testbed.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kSvc{Ipv4(203, 0, 113, 10), 80};

/// Scripted adapter: phase latencies and state are fully controllable.
class MockAdapter final : public ClusterAdapter {
 public:
  MockAdapter(Simulation& sim, std::string name, int rank)
      : ClusterAdapter(std::move(name), rank), sim_(sim) {}

  // --- scripted state ---
  bool imageCached = false;
  bool created = false;
  bool running = false;        // becomes true readyDelay after scale-up
  bool cloud = false;
  SimTime pullDelay = 2_s;
  SimTime createDelay = 100_ms;
  SimTime scaleUpDelay = 300_ms;
  SimTime readyDelay = 100_ms;  // scale-up completion -> port open
  bool failPull = false;
  bool neverReady = false;
  Endpoint instance{Ipv4(10, 0, 1, 1), 30000};

  // --- call log ---
  std::vector<std::string> log;

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
    log.push_back("pull");
    sim_.schedule(pullDelay, [this, cb] {
      if (failPull) {
        cb(makeError(Errc::kUnavailable, "registry down"));
        return;
      }
      imageCached = true;
      cb(Status());
    });
  }

  void createService(const ServiceModel&, Callback cb) override {
    log.push_back("create");
    sim_.schedule(createDelay, [this, cb] {
      created = true;
      cb(Status());
    });
  }

  void scaleUp(const ServiceModel& service, Callback cb) override {
    log.push_back("scaleup");
    sim_.schedule(scaleUpDelay, [this, cb, name = service.uniqueName] {
      if (!neverReady) {
        sim_.schedule(readyDelay, [this, name] { setRunning(true, name); });
      }
      cb(Status());
    });
  }

  void scaleDown(const ServiceModel&, Callback cb) override {
    log.push_back("scaledown");
    running = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void removeService(const ServiceModel&, Callback cb) override {
    log.push_back("remove");
    created = false;
    running = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void deleteImages(const ServiceModel&, Callback cb) override {
    log.push_back("delete-images");
    imageCached = false;
    sim_.schedule(10_ms, [cb] { cb(Status()); });
  }

  void probeInstance(Endpoint probed, ProbeCallback cb) override {
    sim_.schedule(1_ms, [this, probed, cb] {
      cb(running && probed == instance);
    });
  }

  /// Flip the port state and tell the Dispatcher, as a real adapter does
  /// at the commit that changes readyInstances().
  void setRunning(bool value, const std::string& service) {
    running = value;
    readinessChanged(service);
  }

 private:
  Simulation& sim_;
};

class DispatcherFixture : public ::testing::Test {
 protected:
  DispatcherFixture()
      : sim_(81),
        memory_(60_s),
        near_(sim_, "near", 0),
        far_(sim_, "far", 1),
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

  void makeDispatcher(std::unique_ptr<GlobalScheduler> scheduler) {
    scheduler_ = std::move(scheduler);
    dispatcher_ = std::make_unique<Dispatcher>(
        sim_, memory_, *scheduler_,
        std::vector<ClusterAdapter*>{&near_, &far_, &cloud_}, &recorder_);
  }

  Simulation sim_;
  FlowMemory memory_;
  MockAdapter near_;
  MockAdapter far_;
  MockAdapter cloud_;
  metrics::Recorder recorder_;
  ServiceModelPtr model_;
  std::unique_ptr<GlobalScheduler> scheduler_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST_F(DispatcherFixture, AllPhasesRunInOrderWhenCold) {
  makeDispatcher(makeProximityScheduler());
  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  EXPECT_EQ(got->value().cluster, "near");
  EXPECT_EQ(got->value().instance, near_.instance);
  EXPECT_FALSE(got->value().fromMemory);
  ASSERT_EQ(near_.log.size(), 3u);
  EXPECT_EQ(near_.log[0], "pull");
  EXPECT_EQ(near_.log[1], "create");
  EXPECT_EQ(near_.log[2], "scaleup");
  // Total ~ pull 2 s + create 0.1 + scaleup 0.3 + ready 0.1 + poll rounding.
  EXPECT_GE(sim_.now(), 2500_ms);
  EXPECT_LT(sim_.now(), 2700_ms);
}

TEST_F(DispatcherFixture, SkipsCompletedPhases) {
  makeDispatcher(makeProximityScheduler());
  near_.imageCached = true;
  near_.created = true;
  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  ASSERT_EQ(near_.log.size(), 1u);
  EXPECT_EQ(near_.log[0], "scaleup");
  EXPECT_LT(sim_.now(), 600_ms);
}

TEST_F(DispatcherFixture, PhaseDurationsRecorded) {
  makeDispatcher(makeProximityScheduler());
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1), [](Result<Redirect>) {});
  sim_.run();
  const auto* pull = recorder_.series("nginx/near/pull");
  const auto* create = recorder_.series("nginx/near/create");
  const auto* wait = recorder_.series("nginx/near/wait");
  ASSERT_NE(pull, nullptr);
  ASSERT_NE(create, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_NEAR(pull->median(), 2.0, 0.01);
  EXPECT_NEAR(create->median(), 0.1, 0.01);
  EXPECT_GT(wait->median(), 0.05);
}

TEST_F(DispatcherFixture, ConcurrentResolvesCoalesceIntoOneDeployment) {
  makeDispatcher(makeProximityScheduler());
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    dispatcher_->resolve(model_, clientAddress(i), [&](Result<Redirect> r) {
      ASSERT_TRUE(r.ok());
      ++completions;
    });
  }
  sim_.run();
  EXPECT_EQ(completions, 8);
  EXPECT_EQ(dispatcher_->deploymentsTriggered(), 1u);
  // Phases ran exactly once.
  ASSERT_EQ(near_.log.size(), 3u);
}

TEST_F(DispatcherFixture, MemoryHitShortCircuitsScheduling) {
  makeDispatcher(makeProximityScheduler());
  near_.imageCached = true;
  near_.created = true;
  near_.running = true;
  memory_.upsert(Ipv4(10, 0, 2, 1), kSvc, near_.instance, "near",
                 SimTime::zero());

  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_TRUE(got->value().fromMemory);
  EXPECT_TRUE(near_.log.empty());  // no deployment calls at all
}

TEST_F(DispatcherFixture, StaleMemoryEntryFallsBackToScheduling) {
  makeDispatcher(makeProximityScheduler());
  near_.imageCached = true;
  near_.created = true;
  near_.running = false;  // instance scaled down since memorised
  memory_.upsert(Ipv4(10, 0, 2, 1), kSvc, near_.instance, "near",
                 SimTime::zero());

  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_FALSE(got->value().fromMemory);
  // The stale entry was dropped and a fresh scale-up ran.
  EXPECT_EQ(near_.log.back(), "scaleup");
}

TEST_F(DispatcherFixture, WithoutWaitingTriggersBackgroundBest) {
  makeDispatcher(makeLatencyFirstScheduler());
  far_.imageCached = true;
  far_.created = true;
  far_.running = true;
  far_.instance = Endpoint(Ipv4(10, 0, 3, 1), 30000);
  near_.imageCached = true;
  near_.created = true;

  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  // Current request served by the far running instance...
  EXPECT_EQ(got->value().cluster, "far");
  // ...while the near cluster deployed in the background.
  EXPECT_EQ(dispatcher_->backgroundDeployments(), 1u);
  EXPECT_TRUE(near_.running);
}

TEST_F(DispatcherFixture, CloudFallbackWhenFastEmpty) {
  makeDispatcher(makeCloudFallbackScheduler());
  // Nothing runs at any edge; cloud-fallback sends the request to the
  // cloud and deploys near in the background.
  near_.imageCached = true;
  near_.created = true;
  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->value().cluster, "cloud");
  EXPECT_EQ(got->value().instance, cloud_.instance);
  EXPECT_TRUE(near_.running);  // background deployment happened
}

TEST_F(DispatcherFixture, PullFailurePropagates) {
  // With cloud fallback disabled the pull failure must reach the caller
  // once the retry budget is spent.
  DispatcherOptions options;
  options.cloudFallback = false;
  scheduler_ = makeProximityScheduler();
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, memory_, *scheduler_,
      std::vector<ClusterAdapter*>{&near_, &far_, &cloud_}, &recorder_,
      options);
  near_.failPull = true;
  far_.failPull = true;
  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kUnavailable);
  EXPECT_EQ(dispatcher_->retries(),
            static_cast<std::uint64_t>(options.retry.maxRetries));
}

TEST_F(DispatcherFixture, DeploymentTimeoutFiresWhenNeverReady) {
  DispatcherOptions options;
  options.deployTimeout = 5_s;
  options.retry.maxRetries = 0;  // hard deadline == deployTimeout
  options.cloudFallback = false;
  scheduler_ = makeProximityScheduler();
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, memory_, *scheduler_,
      std::vector<ClusterAdapter*>{&near_, &far_, &cloud_}, &recorder_,
      options);
  near_.imageCached = true;
  near_.created = true;
  near_.neverReady = true;  // scale-up succeeds; port never opens

  std::optional<Result<Redirect>> got;
  dispatcher_->resolve(model_, Ipv4(10, 0, 2, 1),
                       [&](Result<Redirect> r) { got = std::move(r); });
  sim_.runUntil(30_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kTimeout);
  EXPECT_EQ(dispatcher_->pendingDeployments(), 0u);
}

// A deployment erased by its hard deadline leaves its 50 ms poll chain
// in flight.  A new deployment of the same service on the same cluster
// must not be finished (or timed) by that stale chain: its attempt has an
// identity of its own.
TEST_F(DispatcherFixture, TimedOutDeploymentCallbacksIgnoreTheNextDeployment) {
  DispatcherOptions options;
  options.deployTimeout = 5_s;
  options.retry.maxRetries = 0;
  options.cloudFallback = false;
  scheduler_ = makeProximityScheduler();
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, memory_, *scheduler_,
      std::vector<ClusterAdapter*>{&near_, &far_, &cloud_}, &recorder_,
      options);
  near_.imageCached = true;
  near_.created = true;
  near_.neverReady = true;
  near_.scaleUpDelay = 330_ms;
  near_.readyDelay = 120_ms;

  std::optional<Result<Endpoint>> first;
  std::optional<Result<Endpoint>> second;
  dispatcher_->ensureReady(model_, near_, [&](Result<Endpoint> r) {
    first = std::move(r);
    // Redeploy right away, on a cluster that now comes up.
    near_.neverReady = false;
    near_.scaleUpDelay = 300_ms;
    dispatcher_->ensureReady(model_, near_, [&](Result<Endpoint> r2) {
      second = std::move(r2);
    });
  });
  sim_.runUntil(30_s);

  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->error().code, Errc::kTimeout);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->ok());
  // The second deployment's own wait: scale-up done at 5.3 s, port open
  // at 5.42 s, seen by its own poll at 5.45 s (+1 ms probe).  The stale
  // chain of the first deployment would record ~5.1 s here.
  const auto* wait = recorder_.series("nginx/near/wait");
  ASSERT_NE(wait, nullptr);
  ASSERT_EQ(wait->count(), 1u);
  EXPECT_LT(wait->median(), 1.0);
  EXPECT_NEAR(wait->median(), 0.151, 1e-6);
}

TEST_F(DispatcherFixture, AdapterLookupHelpers) {
  makeDispatcher(makeProximityScheduler());
  EXPECT_EQ(dispatcher_->adapterByName("near"), &near_);
  EXPECT_EQ(dispatcher_->adapterByName("nope"), nullptr);
  EXPECT_EQ(dispatcher_->cloudAdapter(), &cloud_);
}

TEST_F(DispatcherFixture, EnsureReadyReturnsExistingInstanceImmediately) {
  makeDispatcher(makeProximityScheduler());
  near_.running = true;
  std::optional<Result<Endpoint>> got;
  dispatcher_->ensureReady(model_, near_,
                           [&](Result<Endpoint> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->value(), near_.instance);
  EXPECT_TRUE(near_.log.empty());
  EXPECT_EQ(dispatcher_->deploymentsTriggered(), 0u);
}

// ------------------------------------------------- readiness wait ----

// The wait polls on a 50 ms grid from the scale-up (§VI "continuously
// tests if the respective port is open").  Readiness that comes and goes
// between two grid ticks is not seen; the wait ends on the first tick that
// finds a ready instance, plus the 1 ms probe.
TEST_F(DispatcherFixture, ReadinessFlipBackWaitsForTheNextGridTick) {
  makeDispatcher(makeProximityScheduler());
  near_.imageCached = true;
  near_.created = true;
  near_.neverReady = true;  // the test scripts the port state below
  const std::string name = model_->uniqueName;
  sim_.scheduleAt(320_ms, [&] { near_.setRunning(true, name); });
  sim_.scheduleAt(340_ms, [&] { near_.setRunning(false, name); });
  sim_.scheduleAt(410_ms, [&] { near_.setRunning(true, name); });

  std::optional<Result<Endpoint>> got;
  SimTime answeredAt;
  dispatcher_->ensureReady(model_, near_, [&](Result<Endpoint> r) {
    got = std::move(r);
    answeredAt = sim_.now();
  });
  sim_.runUntil(345_ms);
  EXPECT_EQ(dispatcher_->parkedWaiters(), 0u);  // woken for the 350 ms tick
  sim_.runUntil(360_ms);
  EXPECT_EQ(dispatcher_->parkedWaiters(), 1u);  // 350 ms found none: parked
  sim_.runUntil(5_s);

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  // Scale-up done at 300 ms; ticks at 350 and 400 ms find no instance, the
  // 450 ms tick does.
  EXPECT_EQ(answeredAt, 451_ms);
  EXPECT_EQ(dispatcher_->parkedWaiters(), 0u);
}

// Readiness that lands exactly on a grid tick, from an event scheduled
// more than one interval before it, is seen by that tick: the tick that
// used to be queued one interval earlier ran after such an event.
TEST_F(DispatcherFixture, ReadinessOnAGridTickIsSeenByThatTick) {
  makeDispatcher(makeProximityScheduler());
  near_.imageCached = true;
  near_.created = true;
  near_.scaleUpDelay = 300_ms;
  near_.readyDelay = 100_ms;  // the port opens at 400 ms, a grid tick

  std::optional<Result<Endpoint>> got;
  SimTime answeredAt;
  dispatcher_->ensureReady(model_, near_, [&](Result<Endpoint> r) {
    got = std::move(r);
    answeredAt = sim_.now();
  });
  sim_.runUntil(5_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(answeredAt, 401_ms);
}

// A retry supersedes the parked waiter of the failed attempt: readiness
// arriving in between must not finish the deployment through it.
TEST_F(DispatcherFixture, WaiterSupersededWhileParkedIsDropped) {
  DispatcherOptions options;
  options.phaseTimeout = 500_ms;
  options.retry.maxRetries = 1;
  options.retry.initialBackoff = 200_ms;
  scheduler_ = makeProximityScheduler();
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, memory_, *scheduler_,
      std::vector<ClusterAdapter*>{&near_, &far_, &cloud_}, &recorder_,
      options);
  near_.imageCached = true;
  near_.created = true;
  near_.neverReady = true;
  const std::string name = model_->uniqueName;

  int answers = 0;
  SimTime answeredAt;
  dispatcher_->ensureReady(model_, near_, [&](Result<Endpoint> r) {
    ASSERT_TRUE(r.ok()) << r.error().toString();
    ++answers;
    answeredAt = sim_.now();
  });
  // Attempt 1 scales up at 300 ms and parks; its phase watchdog fails it
  // at 500 ms.  The port opens at 600 ms, before attempt 2 (retry at
  // 700 ms) finishes its scale-up at 1 s.
  sim_.runUntil(400_ms);
  EXPECT_EQ(dispatcher_->parkedWaiters(), 1u);
  sim_.runUntil(550_ms);
  EXPECT_EQ(dispatcher_->parkedWaiters(), 0u);
  sim_.scheduleAt(600_ms, [&] { near_.setRunning(true, name); });
  sim_.runUntil(5_s);

  EXPECT_EQ(answers, 1);
  EXPECT_EQ(answeredAt, 1001_ms);  // attempt 2's first poll, plus the probe
  EXPECT_EQ(dispatcher_->retries(), 1u);
  const auto* wait = recorder_.series("nginx/near/wait");
  ASSERT_NE(wait, nullptr);
  ASSERT_EQ(wait->count(), 1u);
  EXPECT_NEAR(wait->median(), 0.001, 1e-9);
}

const Endpoint kAsmAddr{Ipv4(203, 0, 113, 11), 80};

/// The testbed's one "scaleup" and one "wait" span, in that order.
std::pair<trace::TraceSpan, trace::TraceSpan> scaleUpAndWait(Testbed& bed) {
  std::vector<trace::TraceSpan> scaleUps;
  std::vector<trace::TraceSpan> waits;
  for (const auto& span : bed.trace().spans()) {
    if (span.name == "scaleup") scaleUps.push_back(span);
    if (span.name == "wait") waits.push_back(span);
  }
  EXPECT_EQ(scaleUps.size(), 1u);
  EXPECT_EQ(waits.size(), 1u);
  if (scaleUps.empty() || waits.empty()) return {};
  return {scaleUps.front(), waits.front()};
}

/// Runs `bed` event by event to `until`; returns the most waiters that
/// were parked at once.
std::size_t runCountingParked(Testbed& bed, SimTime until) {
  std::size_t most = 0;
  while (bed.sim().now() < until && bed.sim().step()) {
    most = std::max(most, bed.controller().dispatcher().parkedWaiters());
  }
  return most;
}

TEST(DispatcherReadiness, ParkedK8sWaiterWakesOnTheGridTick) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kK8sOnly;
  Testbed bed(options);
  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kSvc).ok());
  const std::string name = bed.controller().serviceAt(kSvc)->uniqueName;
  // Commits of the service's Endpoints with a ready address; a watcher sees
  // each one watchLatency after its commit.
  std::vector<SimTime> readyCommits;
  bed.k8sCluster()->api().endpoints().watch(
      [&](const k8s::WatchEvent<k8s::Endpoints>& event) {
        if (event.object.meta.name == name &&
            !event.object.addresses.empty()) {
          readyCommits.push_back(bed.sim().now() -
                                 options.k8sParams.watchLatency);
        }
      });

  bed.requestCatalog(0, "nginx", kSvc, "t");
  EXPECT_EQ(runCountingParked(bed, 30_s), 1u);
  EXPECT_EQ(bed.controller().dispatcher().parkedWaiters(), 0u);

  const auto [scaleUp, wait] = scaleUpAndWait(bed);
  EXPECT_EQ(wait.start, scaleUp.end);
  ASSERT_FALSE(readyCommits.empty());
  const SimTime commit = readyCommits.front();
  ASSERT_GT(commit, scaleUp.end);  // the poll had to wait for it
  // The first 50 ms tick after the scale-up that is not before the commit,
  // plus the 1 ms management-plane probe.
  SimTime tick = scaleUp.end;
  while (tick < commit) tick = tick + 50_ms;
  EXPECT_EQ(wait.end, tick + 1_ms);
}

// Docker: the second container of nginx-py starts after the first one's
// port is open, so the scale-up ends with a ready instance.
TEST(DispatcherReadiness, DockerDeployReadyAtScaleUpNeverParks) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  bed.warmImageCache("nginx-py");
  ASSERT_TRUE(bed.registerCatalogService("nginx-py", kSvc).ok());
  bed.requestCatalog(0, "nginx-py", kSvc, "t");
  EXPECT_EQ(runCountingParked(bed, 30_s), 0u);
  const auto [scaleUp, wait] = scaleUpAndWait(bed);
  EXPECT_EQ(wait.start, scaleUp.end);
  EXPECT_EQ(wait.end, scaleUp.end + 1_ms);
}

TEST(DispatcherReadiness, ServerlessDeployReadyAtScaleUpNeverParks) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kServerlessOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("asm", kAsmAddr).ok());
  bed.requestCatalog(0, "asm", kAsmAddr, "t");
  EXPECT_EQ(runCountingParked(bed, 30_s), 0u);
  const auto [scaleUp, wait] = scaleUpAndWait(bed);
  EXPECT_EQ(wait.start, scaleUp.end);
  EXPECT_EQ(wait.end, scaleUp.end + 1_ms);
}

// The cloud instance is up from registration: nothing to deploy or wait for.
TEST(DispatcherReadiness, CloudIsReadyWithoutADeployment) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kSvc).ok());
  Dispatcher& dispatcher = bed.controller().dispatcher();
  std::optional<Result<Endpoint>> got;
  dispatcher.ensureReady(bed.controller().serviceAt(kSvc),
                         *bed.cloudAdapter(),
                         [&](Result<Endpoint> r) { got = std::move(r); });
  EXPECT_EQ(runCountingParked(bed, 1_s), 0u);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(dispatcher.deploymentsTriggered(), 0u);
}

}  // namespace
}  // namespace edgesim::core
