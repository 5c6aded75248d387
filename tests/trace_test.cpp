// Tests for the trace subsystem: span nesting and ID stability under the
// deterministic sim clock, Chrome trace_event export, the per-request
// breakdown (segments partition time_total), and the end-to-end request-ID
// propagation through the testbed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "core/testbed.hpp"
#include "net/packet.hpp"
#include "trace/trace_recorder.hpp"
#include "util/json.hpp"

namespace edgesim {
namespace {

using namespace edgesim::core;
using namespace edgesim::timeliterals;
using trace::RequestId;
using trace::SpanId;
using trace::TraceRecorder;

// ---------------------------------------------------------- recording ----

TEST(TraceRecorder, SpanIdsAreStableAndNested) {
  TraceRecorder recorder;
  const RequestId rid = recorder.newRequest();
  EXPECT_EQ(rid, 1u);

  const SpanId root = recorder.beginSpan(rid, "request", "client", 0_s);
  const SpanId resolve =
      recorder.beginSpan(rid, "resolve", "controller", 1_ms, {}, root);
  const SpanId deploy =
      recorder.beginSpan(rid, "deploy", "deploy", 2_ms, {}, resolve);
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(resolve, 2u);
  EXPECT_EQ(deploy, 3u);

  recorder.endSpan(deploy, 300_ms);
  recorder.endSpan(resolve, 301_ms);
  recorder.endSpan(root, 400_ms);

  ASSERT_EQ(recorder.spanCount(), 3u);
  const std::optional<trace::TraceSpan> deploySpan = recorder.spanById(deploy);
  ASSERT_TRUE(deploySpan.has_value());
  EXPECT_EQ(deploySpan->parent, resolve);
  EXPECT_EQ(recorder.spanById(resolve)->parent, root);
  EXPECT_EQ(recorder.spanById(root)->parent, 0u);
  EXPECT_FALSE(deploySpan->open);
  EXPECT_EQ(deploySpan->duration(), 298_ms);
  // IDs are 1-based indices -- identical call sequences yield identical IDs.
  TraceRecorder again;
  const RequestId rid2 = again.newRequest();
  EXPECT_EQ(again.beginSpan(rid2, "request", "client", 0_s), root);
  EXPECT_EQ(again.beginSpan(rid2, "resolve", "controller", 1_ms), resolve);
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  recorder.setEnabled(false);
  EXPECT_EQ(recorder.newRequest(), 0u);
  EXPECT_EQ(recorder.beginSpan(1, "x", "y", 0_s), 0u);
  recorder.instant(1, "x", "y", 0_s);
  EXPECT_EQ(recorder.spanCount(), 0u);
  EXPECT_TRUE(recorder.instants().empty());
  // Only the constant process_name metadata event remains.
  EXPECT_EQ(recorder.chromeTrace().find("traceEvents")->size(), 1u);
}

TEST(TraceRecorder, FlowBindingIsConsumedOnUse) {
  TraceRecorder recorder;
  const Ipv4 client(10, 0, 2, 1);
  const Endpoint service(Ipv4(203, 0, 113, 10), 80);
  const RequestId rid = recorder.newRequest();
  recorder.bindFlow(client, service, rid);
  EXPECT_EQ(recorder.clientRequestDone(client, service, 0_s, 1_s, true, "a"),
            rid);
  // Binding consumed: the next completion gets a fresh request ID.
  const RequestId warm =
      recorder.clientRequestDone(client, service, 2_s, 3_s, true, "a");
  EXPECT_NE(warm, rid);
  EXPECT_NE(warm, 0u);
}

// ------------------------------------------------------------- export ----

TEST(TraceRecorder, ChromeTraceHasSchemaFields) {
  TraceRecorder recorder;
  const RequestId rid = recorder.newRequest();
  const SpanId root = recorder.beginSpan(rid, "request", "client", 0_s);
  recorder.instant(rid, "packet-in", "controller", 1_ms,
                   {{"client", "10.0.2.1"}});
  recorder.endSpan(root, 500_ms);

  const JsonValue doc = recorder.chromeTrace();
  EXPECT_TRUE(doc.has("displayTimeUnit"));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool sawComplete = false;
  bool sawInstant = false;
  bool sawMeta = false;
  for (const JsonValue& event : events->items()) {
    const std::string phase = event.stringOr("ph", "");
    EXPECT_TRUE(event.has("pid"));
    if (phase == "X" || phase == "i") {
      EXPECT_TRUE(event.has("tid"));
      EXPECT_TRUE(event.has("ts"));
    }
    if (phase == "X") {
      sawComplete = true;
      EXPECT_EQ(event.stringOr("name", ""), "request");
      EXPECT_EQ(event.stringOr("cat", ""), "client");
      // ts/dur are microseconds: 0 .. 500 ms.
      EXPECT_EQ(event.numberOr("ts", -1), 0);
      EXPECT_EQ(event.numberOr("dur", -1), 500000);
      EXPECT_EQ(event.numberOr("tid", 0), static_cast<double>(rid));
    } else if (phase == "i") {
      sawInstant = true;
      EXPECT_EQ(event.stringOr("name", ""), "packet-in");
      EXPECT_EQ(event.numberOr("ts", -1), 1000);
    } else if (phase == "M") {
      sawMeta = true;
    }
  }
  EXPECT_TRUE(sawComplete);
  EXPECT_TRUE(sawInstant);
  EXPECT_TRUE(sawMeta);

  // The serialized document parses back.
  const auto parsed = JsonValue::parse(recorder.chromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  EXPECT_EQ(parsed.value().find("traceEvents")->size(), events->size());
}

// ------------------------------------------------------- typed values ----

// Keys are string literals only: the recorder stores the bare pointer.
static_assert(std::is_constructible_v<trace::TraceKey, const char (&)[7]>);
static_assert(!std::is_constructible_v<trace::TraceKey, std::string>);
static_assert(!std::is_constructible_v<trace::TraceKey, const std::string&>);
static_assert(!std::is_constructible_v<trace::TraceKey, const char*>);
static_assert(!std::is_constructible_v<trace::TraceKey, const char*&>);
static_assert(!std::is_convertible_v<std::string, trace::TraceKey>);
static_assert(!std::is_convertible_v<const char*, trace::TraceKey>);

TEST(TraceValue, EachAlternativeFormatsAsTheStringItReplaces) {
  using trace::formatTraceValue;
  EXPECT_EQ(formatTraceValue(std::string("nginx-1")), "nginx-1");
  EXPECT_EQ(formatTraceValue(std::string()), "");
  for (const Ipv4 ip : {Ipv4(0, 0, 0, 0), Ipv4(255, 255, 255, 255),
                        Ipv4(10, 0, 2, 1)}) {
    EXPECT_EQ(formatTraceValue(ip), ip.toString());
    for (const std::uint16_t port : {0, 80, 65535}) {
      const Endpoint ep(ip, port);
      EXPECT_EQ(formatTraceValue(ep), ep.toString());
    }
  }
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    EXPECT_EQ(formatTraceValue(n), std::to_string(n));
  }
  Packet packet = makeData(Mac(1), Endpoint(Ipv4(10, 0, 2, 1), 40000),
                           Endpoint(Ipv4(203, 0, 113, 10), 80), Bytes{1448},
                           nullptr);
  for (unsigned flags = 0; flags < 32; ++flags) {
    packet.tcpFlags = static_cast<std::uint8_t>(flags);
    EXPECT_EQ(formatTraceValue(packet.header()), packet.summary());
  }
  const Error error = makeError(Errc::kTimeout, "deployment timed out");
  EXPECT_EQ(formatTraceValue(error), error.toString());
}

/// The same events recorded twice: once with typed values, once with the
/// strings those values used to be formatted into at record time.
void recordTypedOrFormatted(TraceRecorder& recorder, bool typed) {
  const Ipv4 client(10, 0, 2, 17);
  const Endpoint service(Ipv4(203, 0, 113, 10), 80);
  const Endpoint instance(Ipv4(10, 0, 1, 1), 30001);
  Packet syn = makeSyn(Mac(1), Endpoint(client, 40001), service);
  const Error error = makeError(Errc::kUnavailable, "pull failed");
  const auto value = [typed](const trace::TraceValue& v) -> trace::TraceValue {
    return typed ? v : trace::TraceValue(trace::formatTraceValue(v));
  };
  const RequestId rid = recorder.newRequest();
  recorder.instant(rid, "packet-in", "controller", 1_ms,
                   {{"client", value(client)},
                    {"service", value(service)},
                    {"packet", value(syn.header())}});
  const SpanId resolve = recorder.beginSpan(
      rid, "resolve", "controller", 1_ms, {{"service", "nginx-1"}});
  recorder.completeSpan(rid, "pull", "deploy", 2_ms, 90_ms,
                        {{"ok", "false"}, {"error", value(error)}}, resolve);
  recorder.instant(rid, "join-deployment", "deploy", 3_ms,
                   {{"key", "nginx-1@egs"},
                    {"initiator", value(std::uint64_t{rid})}});
  recorder.endSpan(resolve, 100_ms,
                   {{"ok", "true"},
                    {"instance", value(instance)},
                    {"retries", value(std::uint64_t{2})}});
}

TEST(TraceRecorder, TypedArgumentsExportLikePreformattedStrings) {
  TraceRecorder typed;
  TraceRecorder formatted;
  recordTypedOrFormatted(typed, true);
  recordTypedOrFormatted(formatted, false);
  const std::string json = typed.chromeTraceJson(2);
  EXPECT_EQ(json, formatted.chromeTraceJson(2));
  EXPECT_NE(json.find("\"10.0.2.17:40001 -> 203.0.113.10:80 [S] 0 B\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"unavailable: pull failed\""),
            std::string::npos)
      << json;

  // The client-side root span and the warm-path marker are typed too.
  TraceRecorder warm;
  const Ipv4 client(10, 0, 2, 1);
  const Endpoint service(Ipv4(203, 0, 113, 10), 80);
  warm.clientRequestDone(client, service, 0_s, 1_ms, true, "nginx/warm");
  TraceRecorder manual;
  const RequestId rid = manual.newRequest();
  manual.instant(rid, "warm-path", "client", 0_s,
                 {{"client", "10.0.2.1"}, {"service", "203.0.113.10:80"}});
  manual.completeSpan(rid, "request", "client", 0_s, 1_ms,
                      {{"series", "nginx/warm"},
                       {"client", "10.0.2.1"},
                       {"service", "203.0.113.10:80"},
                       {"success", "true"}});
  EXPECT_EQ(warm.chromeTraceJson(), manual.chromeTraceJson());
}

// ------------------------------------------- end-to-end via the testbed ----

/// One cold request through the full transparent-access path.
struct ColdRunResult {
  double timeTotal = -1;
  std::string traceJson;
};

ColdRunResult runColdRequest() {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  EXPECT_TRUE(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");
  ColdRunResult result;
  bed.requestCatalog(0, "nginx", address, "cold",
                     [&result](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       result.timeTotal =
                           r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(30_s);
  result.traceJson = bed.trace().chromeTraceJson();

  // Request-ID propagation: packet-in instant and the controller spans all
  // carry the same request ID as the root span.
  const auto& spans = bed.trace().spans();
  std::set<RequestId> requestIds;
  for (const auto& span : spans) requestIds.insert(span.request);
  EXPECT_EQ(requestIds.size(), 1u);
  EXPECT_NE(*requestIds.begin(), 0u);

  // The breakdown's segments partition time_total (well within 1 ms).
  const auto breakdowns = bed.trace().breakdowns();
  EXPECT_EQ(breakdowns.size(), 1u);
  if (!breakdowns.empty()) {
    const auto& breakdown = breakdowns.front();
    EXPECT_EQ(breakdown.totalSeconds, result.timeTotal);
    EXPECT_LT(std::fabs(breakdown.segmentSum() - breakdown.totalSeconds),
              1e-3);
    EXPECT_EQ(breakdown.segments.size(), 3u);  // uplink / resolve / downlink
    EXPECT_FALSE(breakdown.phases.empty());    // deployment phases nested
  }
  return result;
}

TEST(TraceRecorder, RequestOnlyExportHasNoDomainProcess) {
  // Every event exports on the one "edgesim" process (pid 1), one row per
  // request -- the layout the determinism goldens compare bytewise.
  TraceRecorder recorder;
  const RequestId rid = recorder.newRequest();
  const SpanId root = recorder.beginSpan(rid, "request", "client", 0_s);
  recorder.endSpan(root, 500_ms);
  const JsonValue doc = recorder.chromeTrace();
  for (const JsonValue& event : doc.find("traceEvents")->items()) {
    const JsonValue* pid = event.find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_EQ(pid->asNumber(), 1.0);
  }
}

TEST(TraceTestbed, ColdRequestBreakdownPartitionsTimeTotal) {
  const ColdRunResult run = runColdRequest();
  EXPECT_GT(run.timeTotal, 0.0);

  // Spot-check the exported trace: one root request span plus the
  // controller-side spans, all parseable.
  const auto parsed = JsonValue::parse(run.traceJson);
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  std::size_t requestSpans = 0;
  std::size_t packetIns = 0;
  for (const JsonValue& event : parsed.value().find("traceEvents")->items()) {
    if (event.stringOr("ph", "") == "X" &&
        event.stringOr("name", "") == "request") {
      ++requestSpans;
    }
    if (event.stringOr("ph", "") == "i" &&
        event.stringOr("name", "") == "packet-in") {
      ++packetIns;
    }
  }
  EXPECT_EQ(requestSpans, 1u);
  EXPECT_EQ(packetIns, 1u);
}

TEST(TraceTestbed, ChromeTraceIsDeterministicAcrossIdenticalRuns) {
  const ColdRunResult a = runColdRequest();
  const ColdRunResult b = runColdRequest();
  EXPECT_EQ(a.timeTotal, b.timeTotal);
  EXPECT_EQ(a.traceJson, b.traceJson);
}

TEST(TraceTestbed, PhaseSamplesFeedBenchSeries) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ASSERT_TRUE(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", address, "cold");
  bed.sim().runUntil(30_s);

  const auto samples = bed.trace().phaseSamples();
  ASSERT_TRUE(samples.count("trace/total"));
  ASSERT_TRUE(samples.count("trace/resolve"));
  ASSERT_TRUE(samples.count("trace/uplink"));
  ASSERT_TRUE(samples.count("trace/downlink"));
  EXPECT_EQ(samples.at("trace/total").count(), 1u);
  // Segment samples sum back to the total.
  const double sum = samples.at("trace/uplink").mean() +
                     samples.at("trace/resolve").mean() +
                     samples.at("trace/downlink").mean();
  EXPECT_NEAR(sum, samples.at("trace/total").mean(), 1e-9);
}

TEST(TraceTestbed, TracingCanBeDisabled) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.tracing = false;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ASSERT_TRUE(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");
  bool done = false;
  bed.requestCatalog(0, "nginx", address, "cold",
                     [&done](Result<HttpExchange> r) { done = r.ok(); });
  bed.sim().runUntil(30_s);
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.trace().spanCount(), 0u);
  EXPECT_TRUE(bed.trace().breakdowns().empty());
}

}  // namespace
}  // namespace edgesim
