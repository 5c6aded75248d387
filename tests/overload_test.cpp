// Overload-governor suite: deadline budgets, deploy tokens, per-cluster
// circuit breakers, brownout and the strict option parser.
//
// Deterministic sim-thread checks of the state machine: closed -> open on
// failure ratio or latency quantile, open -> half-open after cooldown,
// probe bookkeeping (including cancelProbe, the deploy-cap interaction),
// deploy-token caps refusing with kResourceExhausted and degrading to the
// cloud, budget expiry answering a shed degraded redirect while the
// deployment continues, and brownout entry/dwell/exit.  Every end-to-end
// test also pins the controller's accounting invariant:
//
//   submitted == resolved + failed + shed
//
// With the governor disabled (the default) nothing is constructed -- the
// parity test pins that.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "overload/circuit_breaker.hpp"
#include "overload/governor.hpp"
#include "util/config.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;
using core::ClusterMode;
using core::Testbed;
using core::TestbedOptions;
using overload::BreakerOptions;
using overload::BreakerState;
using overload::CircuitBreaker;
using overload::OverloadGovernor;
using overload::OverloadOptions;
using overload::ShedReason;

/// Text of `span`'s argument `key`, "" when it has none.
std::string arg(const trace::TraceSpan& span, const char* key) {
  for (const trace::TraceArg& a : span.args) {
    if (std::string_view(a.key.c_str()) == key) {
      return trace::formatTraceValue(a.value);
    }
  }
  return "";
}

// ----------------------------------------------- circuit breaker ----

BreakerOptions fastBreaker() {
  BreakerOptions options;
  options.window = 10_s;
  options.slices = 10;
  options.minSamples = 4;
  options.failureRatio = 0.5;
  options.openCooldown = 5_s;
  options.halfOpenProbes = 1;
  options.closeAfterProbes = 2;
  return options;
}

TEST(CircuitBreakerTest, TripsOnFailureRatioAndShortCircuits) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  breaker.recordSuccess(now, 0.01);
  breaker.recordSuccess(now, 0.01);
  breaker.recordFailure(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);  // n=3 < minSamples
  breaker.recordFailure(now);  // ratio 2/4 >= 0.5 -> trip
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
  EXPECT_EQ(breaker.timesOpened(), 1u);
  EXPECT_FALSE(breaker.allow(now));
  EXPECT_FALSE(breaker.allow(now));
  EXPECT_EQ(breaker.shortCircuits(), 2u);
}

TEST(CircuitBreakerTest, OutcomesExpireOutOfTheRollingWindow) {
  CircuitBreaker breaker("edge", fastBreaker());
  breaker.recordFailure(SimTime::seconds(1.0));
  breaker.recordFailure(SimTime::seconds(1.0));
  EXPECT_EQ(breaker.windowFailures(SimTime::seconds(1.0)), 2u);
  // 10 s window: by t=20 s the old failures no longer count, so two fresh
  // successes plus two fresh failures cannot reach the old ones.
  EXPECT_EQ(breaker.windowFailures(SimTime::seconds(20.0)), 0u);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordSuccess(SimTime::seconds(20.0), 0.01);
  breaker.recordFailure(SimTime::seconds(20.0));
  EXPECT_EQ(breaker.state(SimTime::seconds(20.0)), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, TripsOnLatencyQuantile) {
  BreakerOptions options = fastBreaker();
  options.latencyQuantile = 0.5;
  options.latencyThresholdSeconds = 0.1;
  CircuitBreaker breaker("edge", options);
  const SimTime now = SimTime::seconds(1.0);
  // All successes, but far over the latency threshold.
  breaker.recordSuccess(now, 1.0);
  breaker.recordSuccess(now, 1.0);
  breaker.recordSuccess(now, 1.0);
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);
  breaker.recordSuccess(now, 1.0);  // minSamples reached
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, CooldownHalfOpensAndProbesCloseIt) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  ASSERT_EQ(breaker.state(now), BreakerState::kOpen);

  now = now + 5_s;  // cooldown elapsed
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  // One probe slot: allowed until reserved, short-circuited after.
  EXPECT_TRUE(breaker.allow(now));
  breaker.beginProbe(now);
  EXPECT_FALSE(breaker.allow(now));
  breaker.recordSuccess(now, 0.01);  // settles the probe: 1/2 successes
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow(now));
  breaker.beginProbe(now);
  breaker.recordSuccess(now, 0.01);  // 2/2 -> closed, window cleared
  EXPECT_EQ(breaker.state(now), BreakerState::kClosed);
  EXPECT_EQ(breaker.windowFailures(now), 0u);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  now = now + 5_s;
  ASSERT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  breaker.beginProbe(now);
  breaker.recordFailure(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kOpen);
  EXPECT_EQ(breaker.timesOpened(), 2u);
  // Cooldown restarted from the probe failure.
  EXPECT_EQ(breaker.state(now + 4_s), BreakerState::kOpen);
  EXPECT_EQ(breaker.state(now + 5_s), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, CancelProbeReleasesTheSlotWithoutJudging) {
  CircuitBreaker breaker("edge", fastBreaker());
  SimTime now = SimTime::seconds(1.0);
  for (int i = 0; i < 4; ++i) breaker.recordFailure(now);
  now = now + 5_s;
  ASSERT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  breaker.beginProbe(now);
  EXPECT_FALSE(breaker.allow(now));
  // The probe never produced an outcome (deploy-token refusal): the slot
  // frees up and the breaker stays half-open -- neither closed nor
  // re-opened.
  breaker.cancelProbe(now);
  EXPECT_EQ(breaker.state(now), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow(now));
}

// ---------------------------------------------------- governor ----

OverloadOptions enabledOptions() {
  OverloadOptions options;
  options.enabled = true;
  options.requestBudget = SimTime::zero();
  return options;
}

TEST(OverloadGovernorTest, ShedAccountingByReason) {
  OverloadGovernor governor(enabledOptions());
  governor.noteShed(ShedReason::kBudgetExpired);
  governor.noteShed(ShedReason::kBudgetExpired);
  governor.noteShed(ShedReason::kDeployCap);
  EXPECT_EQ(governor.shedCount(ShedReason::kBudgetExpired), 2u);
  EXPECT_EQ(governor.shedCount(ShedReason::kDeployCap), 1u);
  EXPECT_EQ(governor.shedCount(), 3u);
}

TEST(OverloadGovernorTest, DeployTokensCapPerCluster) {
  OverloadOptions options = enabledOptions();
  options.maxDeploysPerCluster = 2;
  OverloadGovernor governor(options);
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  EXPECT_FALSE(governor.tryAcquireDeployToken("edge"));
  // The cap is per cluster.
  EXPECT_TRUE(governor.tryAcquireDeployToken("far-edge"));
  EXPECT_EQ(governor.deployTokensInUse("edge"), 2);
  governor.releaseDeployToken("edge");
  EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
}

TEST(OverloadGovernorTest, ZeroCapMeansUnlimitedDeploys) {
  OverloadOptions options = enabledOptions();
  options.maxDeploysPerCluster = 0;
  OverloadGovernor governor(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(governor.tryAcquireDeployToken("edge"));
  }
  EXPECT_EQ(governor.deployTokensInUse("edge"), 0);
}

TEST(OverloadGovernorTest, BrownoutEntersOnShedBurstAndDwellsOut) {
  OverloadOptions options = enabledOptions();
  options.brownoutShedThreshold = 4;
  options.brownoutWindow = 1_s;
  options.brownoutMinDwell = 5_s;
  OverloadGovernor governor(options);

  EXPECT_FALSE(governor.brownoutActive(SimTime::seconds(0.0)));
  for (int i = 0; i < 4; ++i) governor.noteShed(ShedReason::kBudgetExpired);
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(0.5)));
  EXPECT_EQ(governor.brownoutEntries(), 1u);
  // No further sheds: the window rolls under the threshold, but the
  // min-dwell keeps brownout active until 5 s after the last over-window.
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(2.0)));
  EXPECT_TRUE(governor.brownoutActive(SimTime::seconds(5.0)));
  EXPECT_FALSE(governor.brownoutActive(SimTime::seconds(5.6)));
  EXPECT_EQ(governor.brownoutEntries(), 1u);
}

TEST(OverloadGovernorTest, BreakerVetoesClusterWhenOpen) {
  OverloadOptions options = enabledOptions();
  options.breaker = fastBreaker();
  OverloadGovernor governor(options);
  const SimTime now = SimTime::seconds(1.0);
  EXPECT_TRUE(governor.clusterAllowed("edge", now));
  for (int i = 0; i < 4; ++i) governor.breaker("edge").recordFailure(now);
  EXPECT_FALSE(governor.clusterAllowed("edge", now));
  EXPECT_TRUE(governor.clusterAllowed("other", now));
}

TEST(OverloadOptionsTest, FromConfigParsesEveryKey) {
  Config config;
  config.set("overload_enabled", "true");
  config.set("overload_request_budget_ms", "750");
  config.set("overload_max_deploys_per_cluster", "2");
  config.set("overload_breaker_enabled", "true");
  config.set("overload_breaker_window_ms", "4000");
  config.set("overload_breaker_min_samples", "6");
  config.set("overload_breaker_failure_ratio", "0.25");
  config.set("overload_breaker_latency_threshold_ms", "150");
  config.set("overload_breaker_cooldown_ms", "2500");
  config.set("overload_brownout_shed_threshold", "10");
  config.set("overload_brownout_window_ms", "500");
  config.set("overload_brownout_min_dwell_ms", "3000");

  const auto parsed = OverloadOptions::fromConfig(config);
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  const OverloadOptions& options = parsed.value();
  EXPECT_TRUE(options.enabled);
  EXPECT_EQ(options.requestBudget, SimTime::millis(750));
  EXPECT_EQ(options.maxDeploysPerCluster, 2);
  EXPECT_TRUE(options.breakerEnabled);
  EXPECT_EQ(options.breaker.window, SimTime::seconds(4.0));
  EXPECT_EQ(options.breaker.minSamples, 6u);
  EXPECT_DOUBLE_EQ(options.breaker.failureRatio, 0.25);
  EXPECT_DOUBLE_EQ(options.breaker.latencyThresholdSeconds, 0.15);
  EXPECT_EQ(options.breaker.openCooldown, SimTime::millis(2500));
  EXPECT_EQ(options.brownoutShedThreshold, 10u);
  EXPECT_EQ(options.brownoutWindow, SimTime::millis(500));
  EXPECT_EQ(options.brownoutMinDwell, SimTime::seconds(3.0));
}

TEST(OverloadOptionsTest, FromConfigRejectsUnknownAndMalformedKeys) {
  // The lane admission keys went with the threaded front-end; a config
  // still carrying them must fail loudly, not run with other semantics.
  for (const char* removed :
       {"overload_lane_queue_capacity", "overload_shed_policy"}) {
    Config config;
    config.set(removed, "32");
    const auto parsed = OverloadOptions::fromConfig(config);
    ASSERT_FALSE(parsed.ok()) << removed;
    EXPECT_NE(parsed.error().message.find(removed), std::string::npos)
        << parsed.error().message;
  }
  for (const auto& [key, value] :
       {std::pair{"overload_brownout_shed_threshold", "-1"},
        std::pair{"overload_breaker_failure_ratio", "nan"}}) {
    Config config;
    config.set(key, value);
    const auto parsed = OverloadOptions::fromConfig(config);
    ASSERT_FALSE(parsed.ok()) << key << " = " << value;
    EXPECT_NE(parsed.error().message.find(key), std::string::npos)
        << parsed.error().message;
  }
}

// --------------------------------------- end-to-end request path ----

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

TEST(OverloadEndToEnd, GovernorDisabledByDefaultAndNothingSheds) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  EXPECT_EQ(bed.governor(), nullptr);

  bed.warmImageCache("nginx");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(bed.controller().requestsShed(), 0u);
  EXPECT_EQ(bed.controller().requestsSubmitted(),
            bed.controller().requestsResolved() +
                bed.controller().requestsFailed() +
                bed.controller().requestsShed());
}

/// The "resolve" spans of the requests for `address`, in start order: one
/// per request that reached the controller as a packet-in.
std::vector<trace::TraceSpan> resolveSpans(Testbed& bed, Endpoint address) {
  const std::string& service = bed.controller().serviceAt(address)->uniqueName;
  std::vector<trace::TraceSpan> spans;
  for (trace::TraceSpan& span : bed.trace().spans()) {
    if (span.name == "resolve" && arg(span, "service") == service) {
      spans.push_back(std::move(span));
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const trace::TraceSpan& a, const trace::TraceSpan& b) {
              return a.start < b.start;
            });
  return spans;
}

/// Issue `clientIndex`'s request for catalogue entry `key` at `at`; the
/// HTTP outcome lands in `got`.
void requestAt(Testbed& bed, SimTime at, std::size_t clientIndex,
               const std::string& key, Endpoint address,
               std::optional<Result<HttpExchange>>& got) {
  bed.sim().scheduleAt(at, [&bed, clientIndex, key, address, &got] {
    bed.requestCatalog(clientIndex, key, address, "t",
                       [&got](Result<HttpExchange> r) { got = std::move(r); });
  });
}

TEST(OverloadEndToEnd, ExpiredBudgetFailsFastToCloudWhileDeployContinues) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  // Cold image pull takes sim-seconds; a 100 ms budget always expires.
  options.controller.overload.requestBudget = 100_ms;
  options.controller.overload.brownoutShedThreshold = 0;
  // Keep the memorized flow alive until the end-of-run assertion.
  options.controller.memoryIdleTimeout = 300_s;
  Testbed bed(options);  // no warmImageCache: the pull IS the latency
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  core::EdgeController& controller = bed.controller();
  std::optional<Result<HttpExchange>> got;
  requestAt(bed, 1_s, 0, "nginx", kNginxAddr, got);
  bed.sim().runUntil(120_s);

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());  // served by the cloud instance
  const auto spans = resolveSpans(bed, kNginxAddr);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(arg(spans[0], "degraded"), "true");
  EXPECT_EQ(arg(spans[0], "cluster"), "cloud");
  // Answered AT the budget, not after the deployment.
  EXPECT_EQ(spans[0].duration(), 100_ms);
  EXPECT_EQ(bed.governor()->shedCount(ShedReason::kBudgetExpired), 1u);
  EXPECT_EQ(controller.requestsShed(), 1u);
  EXPECT_EQ(controller.requestsResolved(), 0u);
  // The deployment kept going in the background and memorized the flow for
  // the NEXT request.
  EXPECT_EQ(controller.dispatcher().deploymentsTriggered(), 1u);
  EXPECT_GE(controller.flowMemory().size(), 1u);
}

TEST(OverloadEndToEnd, DeployCapRefusalDegradesToCloudWithoutBreakerBlame) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = SimTime::zero();
  options.controller.overload.maxDeploysPerCluster = 1;
  options.controller.overload.brownoutShedThreshold = 0;
  Testbed bed(options);
  const Endpoint addr2(Ipv4(203, 0, 113, 11), 80);
  bed.warmImageCache("nginx");
  bed.warmImageCache("asm");
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  ASSERT_TRUE(bed.registerCatalogService("asm", addr2).ok());

  core::EdgeController& controller = bed.controller();
  std::optional<Result<HttpExchange>> first;
  std::optional<Result<HttpExchange>> second;
  requestAt(bed, 1_s, 0, "nginx", kNginxAddr, first);
  requestAt(bed, 1_s, 1, "asm", addr2, second);
  bed.sim().runUntil(120_s);

  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(first->ok());
  EXPECT_TRUE(second->ok());
  const auto firstSpans = resolveSpans(bed, kNginxAddr);
  const auto secondSpans = resolveSpans(bed, addr2);
  ASSERT_EQ(firstSpans.size(), 1u);
  ASSERT_EQ(secondSpans.size(), 1u);
  // The first deployment holds the single token; the second service's
  // deployment is refused and the request degrades to the cloud -- but it
  // is RESOLVED (degraded), not shed, and the breaker holds no grudge.
  EXPECT_EQ(arg(firstSpans[0], "degraded"), "false");
  EXPECT_EQ(arg(secondSpans[0], "degraded"), "true");
  EXPECT_EQ(arg(secondSpans[0], "cluster"), "cloud");
  EXPECT_EQ(bed.governor()->shedCount(ShedReason::kDeployCap), 1u);
  EXPECT_EQ(controller.requestsResolved(), 2u);
  EXPECT_EQ(controller.requestsShed(), 0u);
  EXPECT_EQ(controller.requestsDegraded(), 1u);
  // Tokens drain back once the deployment settles, and docker-egs stays
  // breaker-closed (kResourceExhausted never feeds recordFailure).
  EXPECT_EQ(bed.governor()->deployTokensInUse("docker-egs"), 0);
  EXPECT_TRUE(bed.governor()->clusterAllowed("docker-egs", bed.sim().now()));
}

TEST(OverloadEndToEnd, BreakerOpensUnderInjectedFaultsAndRoutesAround) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.deployRetries = 0;
  options.controller.retryBackoff = 50_ms;
  options.controller.quarantineCooldown = SimTime::zero();  // breaker only
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = SimTime::zero();
  options.controller.overload.brownoutShedThreshold = 0;
  options.controller.overload.breaker.window = 60_s;
  options.controller.overload.breaker.minSamples = 2;
  options.controller.overload.breaker.failureRatio = 0.5;
  options.controller.overload.breaker.openCooldown = 300_s;
  Testbed bed(options);

  fault::FaultPlan plan(7);
  fault::FaultSpec spec;
  spec.site = fault::FaultSite::kClusterRpc;
  spec.target = "docker-egs/pull";  // 100% pull failure on the edge
  plan.add(spec);
  bed.injectFaults(plan);

  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  core::EdgeController& controller = bed.controller();

  constexpr int kRequests = 4;
  std::vector<std::optional<Result<HttpExchange>>> got(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requestAt(bed, SimTime::seconds(1.0 + i * 10.0),
              static_cast<std::size_t>(i), "nginx", kNginxAddr, got[i]);
  }
  bed.sim().runUntil(120_s);

  const auto spans = resolveSpans(bed, kNginxAddr);
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(got[i].has_value()) << "request " << i;
    EXPECT_TRUE(got[i]->ok()) << "request " << i;
    EXPECT_EQ(arg(spans[i], "cluster"), "cloud") << "request " << i;
  }
  // The first two failed deployments feed the breaker (minSamples 2,
  // ratio 1.0) and trip it; requests 3 and 4 are then routed straight to
  // the cloud at SCHEDULING time -- the cloud is simply the best allowed
  // cluster (not a degraded fallback) and no further deployment happens.
  EXPECT_EQ(arg(spans[0], "degraded"), "true");
  EXPECT_EQ(arg(spans[1], "degraded"), "true");
  EXPECT_EQ(arg(spans[2], "degraded"), "false");
  EXPECT_EQ(arg(spans[3], "degraded"), "false");
  CircuitBreaker& breaker = bed.governor()->breaker("docker-egs");
  EXPECT_EQ(breaker.state(bed.sim().now()), BreakerState::kOpen);
  EXPECT_GE(breaker.timesOpened(), 1u);
  EXPECT_GE(breaker.shortCircuits(), 1u);
  EXPECT_EQ(controller.dispatcher().deploymentsTriggered(), 2u);
  EXPECT_EQ(controller.requestsResolved(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(controller.requestsShed(), 0u);
}

TEST(OverloadEndToEnd, BrownoutForcesImmediateRedirectsAfterShedBurst) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = 50_ms;
  options.controller.overload.brownoutShedThreshold = 3;
  options.controller.overload.brownoutWindow = 10_s;
  options.controller.overload.brownoutMinDwell = 30_s;
  Testbed bed(options);  // cold pulls: every budget expires -> sheds
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  core::EdgeController& controller = bed.controller();

  // Three distinct budget-expiry sheds within the window arm brownout...
  std::vector<std::optional<Result<HttpExchange>>> shed(3);
  for (int i = 0; i < 3; ++i) {
    requestAt(bed, SimTime::seconds(1.0 + i * 0.5),
              static_cast<std::size_t>(i), "nginx", kNginxAddr, shed[i]);
  }
  // ... so this cold request is answered from the cloud IMMEDIATELY (the
  // paper's "without waiting" redirect) instead of waiting out its budget.
  std::optional<Result<HttpExchange>> fourth;
  requestAt(bed, 4_s, 3, "nginx", kNginxAddr, fourth);
  bed.sim().runUntil(120_s);

  for (const auto& got : shed) {
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->ok());
  }
  EXPECT_EQ(controller.requestsShed(), 3u);
  EXPECT_EQ(bed.governor()->brownoutEntries(), 1u);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_TRUE(fourth->ok());
  const auto spans = resolveSpans(bed, kNginxAddr);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(arg(spans[3], "degraded"), "true");
  EXPECT_EQ(arg(spans[3], "cluster"), "cloud");
  EXPECT_EQ(spans[3].duration(), SimTime::zero());  // zero sim-time wait
  // Resolved, just degraded: the three sheds are the only ones.
  EXPECT_EQ(controller.requestsResolved(), 1u);
}

}  // namespace
}  // namespace edgesim
