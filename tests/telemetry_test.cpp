// Telemetry subsystem tests: one-cell counters, histograms and registry
// snapshots that stay exact over interleaved writes (run under `ctest -L
// concurrency`, which the CI TSan job builds with -fsanitize=thread),
// histogram bucket boundaries,
// Prometheus / JSON golden serialization, lintPrometheus accept/reject
// cases, the SLO watchdog trigger/no-trigger paths, and the one-ledger
// contract: every controller, dispatcher and governor count is a registry
// series; the metrics Recorder keeps every sample (it has no bound).
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/recorder.hpp"
#include "sim/simulation.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/slo_watchdog.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/trace_recorder.hpp"

namespace edgesim::telemetry {
namespace {

using edgesim::trace::TraceRecorder;

// ---- one cell per metric ----------------------------------------------------

TEST(CounterTest, CountsEveryAddOfInterleavedWriters) {
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 20000;
  Counter counter;
  for (std::uint64_t i = 0; i < kPerWriter; ++i) {
    for (int w = 0; w < kWriters; ++w) counter.add();
  }
  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
}

TEST(HistogramTest, CountsAndSumsEveryObservationOfInterleavedWriters) {
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 10000;
  Histogram hist;
  for (std::uint64_t i = 0; i < kPerWriter; ++i) {
    // Distinct per-writer values, so the observations land in distinct
    // buckets, not just one hot cell.
    for (int w = 0; w < kWriters; ++w) hist.observe(0.001 * (w + 1));
  }
  EXPECT_EQ(hist.count(), kWriters * kPerWriter);
  // Sum of 10000 * (1+2+...+8) ms = 360 s, at nanosecond resolution.
  EXPECT_NEAR(hist.sum(), 360.0, 1e-3);
}

TEST(MetricsRegistryTest, InterleavedWritesAndSnapshotsAgreeExactly) {
  constexpr int kWriters = 6;
  constexpr std::uint64_t kPerWriter = 5000;
  MetricsRegistry registry;
  // Handles resolve once; the loop is pure cell writes.
  std::vector<Counter*> mine;
  for (int w = 0; w < kWriters; ++w) {
    mine.push_back(&registry.counter("worker_ops_total",
                                     {{"worker", std::to_string(w)}}));
  }
  Counter& shared = registry.counter("ops_total");
  Histogram& seconds = registry.histogram("op_seconds");
  for (std::uint64_t i = 0; i < kPerWriter; ++i) {
    for (int w = 0; w < kWriters; ++w) {
      mine[w]->add();
      shared.add();
      seconds.observe(1e-6);
    }
    // Snapshots between writes see every write so far.
    if (i % 100 == 0) {
      const TelemetrySnapshot mid = registry.snapshot(0.0);
      EXPECT_EQ(mid.counterTotal("ops_total"), (i + 1) * kWriters);
    }
  }

  const TelemetrySnapshot snap = registry.snapshot(1.0);
  EXPECT_EQ(snap.counterValue("ops_total"), kWriters * kPerWriter);
  EXPECT_EQ(snap.counterTotal("worker_ops_total"), kWriters * kPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(snap.counterValue("worker_ops_total",
                                {{"worker", std::to_string(w)}}),
              kPerWriter);
  }
  const SnapshotHistogram* hist = snap.findHistogram("op_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kWriters * kPerWriter);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter& a = registry.counter("c", {{"k", "v"}});
  Counter& b = registry.counter("c", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  // Same name, different labels = different series.
  EXPECT_NE(&a, &registry.counter("c", {{"k", "w"}}));
  EXPECT_NE(&a, &registry.counter("c"));
}

TEST(MetricsRegistryTest, SnapshotSequenceIncreases) {
  MetricsRegistry registry;
  const TelemetrySnapshot first = registry.snapshot(0.0);
  const TelemetrySnapshot second = registry.snapshot(0.5);
  EXPECT_EQ(second.sequence, first.sequence + 1);
  EXPECT_DOUBLE_EQ(second.simTimeSeconds, 0.5);
}

// ---- histogram buckets ------------------------------------------------------

TEST(HistogramTest, BucketBoundariesTileTheRange) {
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const double lower = Histogram::bucketLowerBound(i);
    const double upper = Histogram::bucketUpperBound(i);
    EXPECT_LT(lower, upper) << "bucket " << i;
    if (i + 1 < Histogram::kBuckets) {
      // Buckets tile: each upper bound is the next bucket's lower bound.
      EXPECT_DOUBLE_EQ(upper, Histogram::bucketLowerBound(i + 1));
    }
    // The exact lower bound and an interior point both map back to i.
    if (i > 0) {
      EXPECT_EQ(Histogram::bucketIndex(lower), i);
    }
    EXPECT_EQ(Histogram::bucketIndex((lower + upper) / 2.0), i);
  }
}

TEST(HistogramTest, BucketIndexClampsAndRejectsNonPositive) {
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(-1.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucketIndex(1e-300), 0);   // below 2^-31 s
  EXPECT_EQ(Histogram::bucketIndex(1e9), Histogram::kBuckets - 1);
}

TEST(HistogramTest, KnownValuesLandInExpectedBuckets) {
  // 0.5 s = 2^-1 with zero mantissa: first sub-bucket of octave -1.
  const int octaveOfHalf = (-1 - Histogram::kMinExp) * Histogram::kSubBuckets;
  EXPECT_EQ(Histogram::bucketIndex(0.5), octaveOfHalf);
  EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(octaveOfHalf), 0.625);
  // 0.6 = 2^-1 * 1.2: sub-bucket floor((1.2 - 1) * 4) = 0, same as 0.5.
  EXPECT_EQ(Histogram::bucketIndex(0.6), octaveOfHalf);
  // 0.7 = 2^-1 * 1.4 -> sub-bucket 1.
  EXPECT_EQ(Histogram::bucketIndex(0.7), octaveOfHalf + 1);
  // 1.0 starts the octave 0 group.
  EXPECT_EQ(Histogram::bucketIndex(1.0),
            (0 - Histogram::kMinExp) * Histogram::kSubBuckets);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram hist;
  for (int i = 0; i < 99; ++i) hist.observe(0.001);  // ~1 ms
  hist.observe(1.0);                                 // one outlier
  // p50 sits in the 1 ms bucket; p100 in the 1 s bucket.
  const double p50 = hist.quantile(0.5);
  EXPECT_GE(p50, Histogram::bucketLowerBound(Histogram::bucketIndex(0.001)));
  EXPECT_LE(p50, Histogram::bucketUpperBound(Histogram::bucketIndex(0.001)));
  const double p100 = hist.quantile(1.0);
  EXPECT_GE(p100, 1.0);
  EXPECT_LE(p100, Histogram::bucketUpperBound(Histogram::bucketIndex(1.0)));
  Histogram empty;
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
}

// ---- serialization goldens --------------------------------------------------

MetricsRegistry& goldenRegistry() {
  static MetricsRegistry registry;
  static bool once = [] {
    registry.counter("requests_total", {{"outcome", "ok"}}).add(2);
    registry.gauge("queue_depth").set(3);
    registry.histogram("latency_seconds").observe(0.5);
    return true;
  }();
  (void)once;
  return registry;
}

TEST(SnapshotTest, PrometheusGolden) {
  const TelemetrySnapshot snap = goldenRegistry().snapshot(1.5);
  const std::string expected =
      "# TYPE requests_total counter\n"
      "requests_total{outcome=\"ok\"} 2\n"
      "# TYPE queue_depth gauge\n"
      "queue_depth 3\n"
      "# TYPE latency_seconds histogram\n"
      "latency_seconds_bucket{le=\"0.625\"} 1\n"
      "latency_seconds_bucket{le=\"+Inf\"} 1\n"
      "latency_seconds_sum 0.5\n"
      "latency_seconds_count 1\n";
  EXPECT_EQ(snap.toPrometheus(), expected);
  EXPECT_TRUE(lintPrometheus(snap.toPrometheus()).ok());
}

TEST(SnapshotTest, JsonRoundTripsExactly) {
  const TelemetrySnapshot snap = goldenRegistry().snapshot(2.5);
  const std::string text = snap.toJson().dump(2);
  const Result<JsonValue> doc = JsonValue::parse(text);
  ASSERT_TRUE(doc.ok()) << doc.error().toString();
  const Result<TelemetrySnapshot> reread =
      TelemetrySnapshot::fromJson(doc.value());
  ASSERT_TRUE(reread.ok()) << reread.error().toString();
  const TelemetrySnapshot& got = reread.value();

  EXPECT_EQ(got.sequence, snap.sequence);
  EXPECT_DOUBLE_EQ(got.simTimeSeconds, 2.5);
  ASSERT_EQ(got.counters.size(), 1u);
  EXPECT_EQ(got.counters[0].name, "requests_total");
  EXPECT_EQ(got.counters[0].labels, Labels({{"outcome", "ok"}}));
  EXPECT_EQ(got.counters[0].value, 2u);
  ASSERT_EQ(got.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(got.gauges[0].value, 3.0);
  ASSERT_EQ(got.histograms.size(), 1u);
  EXPECT_EQ(got.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(got.histograms[0].sum, 0.5);
  ASSERT_EQ(got.histograms[0].buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(got.histograms[0].buckets[0].upperBound, 0.625);
  EXPECT_EQ(got.histograms[0].buckets[0].cumulative, 1u);
}

TEST(SnapshotTest, FromJsonRejectsWrongSchema) {
  const auto doc = JsonValue::parse("{\"schema\": \"other\"}");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(TelemetrySnapshot::fromJson(doc.value()).ok());
}

// ---- Prometheus lint --------------------------------------------------------

TEST(LintPrometheusTest, RejectsMalformedExpositions) {
  // Sample before its TYPE declaration.
  EXPECT_FALSE(lintPrometheus("a_total 1\n# TYPE a_total counter\n").ok());
  // Invalid metric name.
  EXPECT_FALSE(lintPrometheus("# TYPE 9bad counter\n").ok());
  // Unknown type.
  EXPECT_FALSE(lintPrometheus("# TYPE a_total widget\n").ok());
  // Unterminated label value.
  EXPECT_FALSE(
      lintPrometheus("# TYPE a counter\na{k=\"v} 1\n").ok());
  // Non-numeric sample value.
  EXPECT_FALSE(lintPrometheus("# TYPE a counter\na banana\n").ok());
  // Negative counter.
  EXPECT_FALSE(lintPrometheus("# TYPE a counter\na -1\n").ok());
  // Histogram: le bounds must strictly increase.
  EXPECT_FALSE(lintPrometheus("# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 1\n"
                              "h_bucket{le=\"1\"} 2\n"
                              "h_bucket{le=\"+Inf\"} 2\n"
                              "h_sum 1\nh_count 2\n")
                   .ok());
  // Histogram: cumulative counts must not decrease.
  EXPECT_FALSE(lintPrometheus("# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 2\n"
                              "h_bucket{le=\"2\"} 1\n"
                              "h_bucket{le=\"+Inf\"} 2\n"
                              "h_sum 1\nh_count 2\n")
                   .ok());
  // Histogram: +Inf bucket required.
  EXPECT_FALSE(lintPrometheus("# TYPE h histogram\n"
                              "h_bucket{le=\"1\"} 1\n"
                              "h_sum 1\nh_count 1\n")
                   .ok());
  // Histogram: _count must equal the +Inf bucket.
  EXPECT_FALSE(lintPrometheus("# TYPE h histogram\n"
                              "h_bucket{le=\"+Inf\"} 2\n"
                              "h_sum 1\nh_count 3\n")
                   .ok());
}

TEST(LintPrometheusTest, AcceptsWellFormedExposition) {
  EXPECT_TRUE(lintPrometheus("# TYPE a_total counter\n"
                             "a_total{k=\"v\",q=\"x\\\"y\"} 1\n"
                             "# TYPE g gauge\n"
                             "g 2.5\n"
                             "# TYPE h histogram\n"
                             "h_bucket{le=\"0.5\"} 1\n"
                             "h_bucket{le=\"+Inf\"} 3\n"
                             "h_sum 1.25\n"
                             "h_count 3\n")
                  .ok());
  EXPECT_TRUE(lintPrometheus("").ok());
}

// ---- SLO watchdog -----------------------------------------------------------

TEST(SloWatchdogTest, LatencyBreachCapturesWorstRequestSpans) {
  Simulation sim;
  MetricsRegistry registry;
  TraceRecorder trace;
  SloWatchdog watchdog(sim, registry, &trace);

  SloBudget budget;
  budget.name = "resolve-p95";
  budget.service = "nginx";
  budget.histogram = "edgesim_resolve_seconds";
  budget.labels = {{"path", "cold"}};
  budget.quantile = 0.95;
  budget.latencyBudgetSeconds = 0.1;
  budget.minWindowSamples = 3;
  watchdog.addBudget(budget);

  Histogram& hist =
      registry.histogram("edgesim_resolve_seconds", {{"path", "cold"}});
  const trace::RequestId rid = trace.newRequest();
  trace.completeSpan(rid, "resolve", "controller", SimTime::millis(100),
                     SimTime::millis(900));
  for (int i = 0; i < 10; ++i) hist.observe(0.8);
  watchdog.observeRequest("nginx", 0.8, rid);

  EXPECT_EQ(watchdog.evaluate(), 1u);
  ASSERT_EQ(watchdog.breaches().size(), 1u);
  const SloBreach& breach = watchdog.breaches()[0];
  EXPECT_EQ(breach.budget, "resolve-p95");
  EXPECT_EQ(breach.kind, "latency");
  EXPECT_GT(breach.observed, 0.1);
  EXPECT_EQ(breach.windowSamples, 10u);
  EXPECT_EQ(breach.worstRequest, rid);
  ASSERT_EQ(breach.worstSpans.size(), 1u);
  EXPECT_EQ(breach.worstSpans[0].name, "resolve");

  // The breach is visible in the registry and as a trace instant.
  EXPECT_EQ(registry.snapshot(0.0).counterValue(
                "edgesim_slo_breaches_total", {{"budget", "resolve-p95"}}),
            1u);
  bool sawInstant = false;
  for (const trace::TraceInstant& instant : trace.instants()) {
    sawInstant |= instant.name == "slo-breach" && instant.request == rid;
  }
  EXPECT_TRUE(sawInstant);

  // Windowed evaluation: no new observations, no new breach.
  EXPECT_EQ(watchdog.evaluate(), 0u);
  EXPECT_EQ(watchdog.breaches().size(), 1u);
}

TEST(SloWatchdogTest, NoBreachUnderBudgetOrBelowMinSamples) {
  Simulation sim;
  MetricsRegistry registry;
  SloWatchdog watchdog(sim, registry);

  SloBudget budget;
  budget.name = "fast";
  budget.histogram = "h";
  budget.quantile = 0.95;
  budget.latencyBudgetSeconds = 0.5;
  budget.minWindowSamples = 5;
  watchdog.addBudget(budget);

  Histogram& hist = registry.histogram("h");
  for (int i = 0; i < 100; ++i) hist.observe(0.01);  // well under budget
  EXPECT_EQ(watchdog.evaluate(), 0u);

  // Over budget but below the minimum window size: still no breach.
  hist.observe(10.0);
  hist.observe(10.0);
  EXPECT_EQ(watchdog.evaluate(), 0u);
  EXPECT_TRUE(watchdog.breaches().empty());
}

TEST(SloWatchdogTest, ErrorBudgetUsesWindowedRatio) {
  Simulation sim;
  MetricsRegistry registry;
  SloWatchdog watchdog(sim, registry);

  SloBudget budget;
  budget.name = "errors";
  budget.errorCounter = "errs_total";
  budget.totalCounter = "reqs_total";
  budget.maxErrorRatio = 0.2;
  budget.minWindowSamples = 4;
  watchdog.addBudget(budget);

  Counter& errors = registry.counter("errs_total");
  Counter& total = registry.counter("reqs_total");
  total.add(10);
  errors.add(5);  // ratio 0.5 > 0.2
  EXPECT_EQ(watchdog.evaluate(), 1u);
  ASSERT_EQ(watchdog.breaches().size(), 1u);
  EXPECT_EQ(watchdog.breaches()[0].kind, "errors");
  EXPECT_DOUBLE_EQ(watchdog.breaches()[0].observed, 0.5);

  // Next window is healthy: 1 error in 10 is under the ratio.
  total.add(10);
  errors.add(1);
  EXPECT_EQ(watchdog.evaluate(), 0u);
  EXPECT_EQ(watchdog.breaches().size(), 1u);
}

// ---- unbounded recorder -----------------------------------------------------

TEST(RecorderCapTest, UnboundedByDefault) {
  // The Recorder has no storage bound: every sample and failure is kept.
  metrics::Recorder recorder;
  for (int i = 0; i < 100; ++i) recorder.addSample("s", 0.001);
  for (int i = 0; i < 7; ++i) recorder.addFailure();
  ASSERT_NE(recorder.series("s"), nullptr);
  EXPECT_EQ(recorder.series("s")->count(), 100u);
  EXPECT_EQ(recorder.failureCount(), 7u);
}

// ---- one ledger -------------------------------------------------------------

using namespace edgesim::timeliterals;

const Endpoint kLedgerNginx(Ipv4(203, 0, 113, 10), 80);
const Endpoint kLedgerResnet(Ipv4(203, 0, 113, 11), 80);

/// Every controller, dispatcher and governor count, keyed by accessor.
using Counts = std::map<std::string, std::uint64_t>;

Counts accessorCounts(core::EdgeController& controller) {
  core::Dispatcher& dispatcher = controller.dispatcher();
  overload::OverloadGovernor& governor = *controller.governor();
  using overload::ShedReason;
  return {
      {"packetInCount", controller.packetInCount()},
      {"requestsSubmitted", controller.requestsSubmitted()},
      {"requestsResolved", controller.requestsResolved()},
      {"requestsFailed", controller.requestsFailed()},
      {"requestsShed", controller.requestsShed()},
      {"requestsDegraded", controller.requestsDegraded()},
      {"scaleDowns", controller.scaleDowns()},
      {"removals", controller.removals()},
      {"migrations", controller.migrations()},
      {"handoversStarted", controller.handoversStarted()},
      {"handoversCompleted", controller.handoversCompleted()},
      {"handoversAbortedToCloud", controller.handoversAbortedToCloud()},
      {"flowModsSent", controller.flowModsSent()},
      {"flowModsAcked", controller.flowModsAcked()},
      {"flowModsTimedOut", controller.flowModsTimedOut()},
      {"flowModResends", controller.flowModResends()},
      {"flowModFailovers", controller.flowModFailovers()},
      {"deploymentsTriggered", dispatcher.deploymentsTriggered()},
      {"backgroundDeployments", dispatcher.backgroundDeployments()},
      {"retries", dispatcher.retries()},
      {"fallbacks", dispatcher.fallbacks()},
      {"quarantines", dispatcher.quarantines()},
      {"shedCount", governor.shedCount()},
      {"shedCount(budget_expired)",
       governor.shedCount(ShedReason::kBudgetExpired)},
      {"shedCount(deploy_cap)", governor.shedCount(ShedReason::kDeployCap)},
      {"brownoutEntries", governor.brownoutEntries()},
  };
}

/// The same counts, read from a snapshot alone.
Counts seriesCounts(const TelemetrySnapshot& snap) {
  const auto outcome = [&snap](const char* name) {
    return snap.counterValue("edgesim_requests_total", {{"outcome", name}});
  };
  const auto handovers = [&snap](const char* name) {
    return snap.counterValue("edgesim_handovers_total", {{"outcome", name}});
  };
  const auto acks = [&snap](const char* result) {
    return snap.counterValue("edgesim_ctrl_channel_acks_total",
                             {{"result", result}});
  };
  const auto shed = [&snap](const char* reason) {
    return snap.counterValue("edgesim_shed_total", {{"reason", reason}});
  };
  return {
      {"packetInCount", snap.counterTotal("edgesim_packet_ins_total")},
      {"requestsSubmitted",
       snap.counterTotal("edgesim_requests_submitted_total")},
      {"requestsResolved", outcome("resolved")},
      {"requestsFailed", outcome("failed")},
      {"requestsShed", outcome("shed")},
      {"requestsDegraded", outcome("degraded")},
      {"scaleDowns", snap.counterTotal("edgesim_scale_downs_total")},
      {"removals", snap.counterTotal("edgesim_removals_total")},
      {"migrations", snap.counterTotal("edgesim_migrations_total")},
      {"handoversStarted", handovers("started")},
      {"handoversCompleted", handovers("completed")},
      {"handoversAbortedToCloud", handovers("aborted_to_cloud")},
      {"flowModsSent",
       snap.counterTotal("edgesim_ctrl_channel_flow_mods_sent_total")},
      {"flowModsAcked", acks("acked")},
      {"flowModsTimedOut", acks("timeout")},
      {"flowModResends",
       snap.counterTotal("edgesim_ctrl_channel_retries_total")},
      {"flowModFailovers",
       snap.counterTotal("edgesim_ctrl_channel_failovers_total")},
      {"deploymentsTriggered", snap.counterTotal("edgesim_deploys_total")},
      {"backgroundDeployments",
       snap.counterTotal("edgesim_background_deploys_total")},
      {"retries", snap.counterTotal("edgesim_deploy_retries_total")},
      {"fallbacks", snap.counterTotal("edgesim_deploy_fallbacks_total")},
      {"quarantines", snap.counterTotal("edgesim_deploy_quarantines_total")},
      {"shedCount", snap.counterTotal("edgesim_shed_total")},
      {"shedCount(budget_expired)", shed("budget_expired")},
      {"shedCount(deploy_cap)", shed("deploy_cap")},
      {"brownoutEntries",
       snap.counterValue("edgesim_brownout_transitions_total",
                         {{"to", "active"}})},
  };
}

/// Packet-in requests through a lossy controller->switch channel (ack
/// timeouts, resends, one failover to the cloud), then more requests past
/// the switch idle timeout: FlowMemory hits on the memorized flows, and one
/// cold request for a service whose image pull outlasts the request budget
/// (shed to the cloud).  Returns at quiescence.
std::unique_ptr<core::Testbed> runLedgerScenario(bool telemetry) {
  core::TestbedOptions options;
  options.clusterMode = core::ClusterMode::kDockerOnly;
  options.telemetry = telemetry;
  options.controller.overload.enabled = true;
  options.controller.overload.requestBudget = 2_s;
  options.controller.overload.brownoutShedThreshold = 0;
  auto bed = std::make_unique<core::Testbed>(options);
  bed->warmImageCache("nginx");
  EXPECT_TRUE(bed->registerCatalogService("nginx", kLedgerNginx).ok());
  EXPECT_TRUE(bed->registerCatalogService("resnet", kLedgerResnet).ok());

  fault::FaultPlan plan(11);
  fault::FaultSpec loss;
  loss.site = fault::FaultSite::kControlChannelLoss;
  loss.target = "ovs/c2s";
  loss.maxTriggers = 20;
  plan.add(loss);
  bed->injectFaults(plan);

  Simulation& sim = bed->sim();
  bed->requestCatalog(0, "nginx", kLedgerNginx, "ledger");
  sim.scheduleAt(30_s, [&bed] {
    bed->requestCatalog(1, "nginx", kLedgerNginx, "ledger");
    bed->requestCatalog(2, "nginx", kLedgerNginx, "ledger");
  });
  sim.runUntil(40_s);

  constexpr std::size_t kWarm = 3;
  int answered = 0;
  const auto count = [&answered](Result<HttpExchange>) { ++answered; };
  for (std::size_t i = 0; i < kWarm; ++i) {
    bed->requestCatalog(i, "nginx", kLedgerNginx, "ledger", count);
  }
  bed->requestCatalog(0, "resnet", kLedgerResnet, "ledger", count);
  sim.runUntil(60_s);
  EXPECT_EQ(answered, static_cast<int>(kWarm) + 1);
  return bed;
}

TEST(OneLedgerTest, AccessorsReadTheirSeriesAndTheSnapshotReconciles) {
  auto bed = runLedgerScenario(/*telemetry=*/true);
  core::EdgeController& controller = bed->controller();
  const TelemetrySnapshot snap = bed->telemetry().snapshot(0.0);
  const Counts counts = accessorCounts(controller);
  EXPECT_EQ(counts, seriesCounts(snap));

  // The scenario exercised every ledger path it claims to.
  EXPECT_GE(counts.at("requestsShed"), 1u);
  EXPECT_GE(counts.at("shedCount(budget_expired)"), 1u);
  EXPECT_GE(snap.counterValue("edgesim_flow_memory_lookups_total",
                              {{"shard", "0"}, {"result", "hit"}}),
            1u);
  EXPECT_GE(counts.at("flowModsTimedOut"), 1u);
  EXPECT_GE(counts.at("flowModResends"), 1u);
  EXPECT_EQ(counts.at("flowModFailovers"), 1u);
  EXPECT_GE(counts.at("deploymentsTriggered"), 1u);
  EXPECT_EQ(controller.pendingInstallCount(), 0u);

  // Both accounting invariants hold from the snapshot alone.
  EXPECT_EQ(snap.counterTotal("edgesim_requests_submitted_total"),
            snap.counterValue("edgesim_requests_total",
                              {{"outcome", "resolved"}}) +
                snap.counterValue("edgesim_requests_total",
                                  {{"outcome", "failed"}}) +
                snap.counterValue("edgesim_requests_total",
                                  {{"outcome", "shed"}}));
  EXPECT_EQ(snap.counterTotal("edgesim_ctrl_channel_flow_mods_sent_total"),
            snap.counterTotal("edgesim_ctrl_channel_acks_total"));
}

TEST(OneLedgerTest, TelemetryOffKeepsCountsInAPrivateRegistry) {
  auto on = runLedgerScenario(/*telemetry=*/true);
  auto off = runLedgerScenario(/*telemetry=*/false);
  EXPECT_EQ(accessorCounts(off->controller()),
            accessorCounts(on->controller()));

  // The caller's registry never sees a controller, dispatcher or governor
  // series when telemetry is off.
  std::set<std::string> ledgerSeries;
  for (const auto& counter : on->telemetry().snapshot(0.0).counters) {
    ledgerSeries.insert(counter.name);
  }
  ASSERT_TRUE(ledgerSeries.count("edgesim_requests_submitted_total") != 0);
  for (const auto& counter : off->telemetry().snapshot(0.0).counters) {
    EXPECT_EQ(ledgerSeries.count(counter.name), 0u) << counter.name;
  }
}

}  // namespace
}  // namespace edgesim::telemetry
