// Tests for the workload module (bigFlows-like trace generation and the
// paper's service-extraction filter) and the metrics recorder.
#include <gtest/gtest.h>

#include <set>

#include "metrics/recorder.hpp"
#include "workload/bigflows.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace edgesim::workload {
namespace {

using namespace timeliterals;

TEST(TraceFilter, PortAndMinimumRequestFilter) {
  Trace trace;
  trace.duration = 300_s;
  // dst A on port 80 with 25 requests across two clients -> kept.
  TcpConversation a1;
  a1.srcIp = Ipv4(10, 0, 2, 1);
  a1.dst = Endpoint(Ipv4(198, 18, 1, 1), 80);
  for (int i = 0; i < 15; ++i) a1.requestTimes.push_back(SimTime::seconds(i));
  TcpConversation a2 = a1;
  a2.srcIp = Ipv4(10, 0, 2, 2);
  a2.requestTimes.resize(10);
  // dst B on port 80 with 19 requests -> dropped (below minimum).
  TcpConversation b;
  b.srcIp = Ipv4(10, 0, 2, 1);
  b.dst = Endpoint(Ipv4(198, 18, 1, 2), 80);
  for (int i = 0; i < 19; ++i) b.requestTimes.push_back(SimTime::seconds(i));
  // dst C on port 443 with 100 requests -> dropped (wrong port).
  TcpConversation c;
  c.srcIp = Ipv4(10, 0, 2, 3);
  c.dst = Endpoint(Ipv4(198, 18, 1, 3), 443);
  for (int i = 0; i < 100; ++i) c.requestTimes.push_back(SimTime::seconds(i));

  trace.conversations = {a1, a2, b, c};
  const auto services = extractServices(trace, 80, 20);
  ASSERT_EQ(services.size(), 1u);
  EXPECT_EQ(services[0].address, a1.dst);
  EXPECT_EQ(services[0].requestCount(), 25u);
  // Requests merged across conversations and sorted by time.
  for (std::size_t i = 1; i < services[0].requests.size(); ++i) {
    EXPECT_LE(services[0].requests[i - 1].first,
              services[0].requests[i].first);
  }
}

TEST(TraceFilter, ServicesOrderedByFirstRequest) {
  Trace trace;
  trace.duration = 300_s;
  for (int s = 0; s < 3; ++s) {
    TcpConversation conv;
    conv.srcIp = Ipv4(10, 0, 2, 1);
    conv.dst = Endpoint(Ipv4(198, 18, 1, static_cast<std::uint8_t>(s + 1)), 80);
    const double first = 100.0 - s * 30.0;  // later services come first
    for (int i = 0; i < 20; ++i) {
      conv.requestTimes.push_back(SimTime::seconds(first + i));
    }
    trace.conversations.push_back(conv);
  }
  const auto services = extractServices(trace);
  ASSERT_EQ(services.size(), 3u);
  EXPECT_LT(services[0].firstRequestAt(), services[1].firstRequestAt());
  EXPECT_LT(services[1].firstRequestAt(), services[2].firstRequestAt());
}

TEST(BigFlows, MatchesPaperAggregatesExactly) {
  const auto services = generateFilteredServices(BigFlowsParams{});
  ASSERT_EQ(services.size(), 42u);  // fig. 9: 42 services
  std::size_t total = 0;
  for (const auto& service : services) total += service.requestCount();
  EXPECT_EQ(total, 1708u);  // fig. 9: 1708 requests
  for (const auto& service : services) {
    EXPECT_GE(service.requestCount(), 20u);  // selection rule
    EXPECT_EQ(service.address.port, 80);
  }
}

TEST(BigFlows, HeavyTailAndDistinctAddresses) {
  const auto services = generateFilteredServices(BigFlowsParams{});
  std::set<Endpoint> addresses;
  std::size_t maxCount = 0;
  for (const auto& service : services) {
    addresses.insert(service.address);
    maxCount = std::max(maxCount, service.requestCount());
  }
  EXPECT_EQ(addresses.size(), services.size());
  // Hottest service well above the minimum (zipf tail).
  EXPECT_GT(maxCount, 100u);
}

TEST(BigFlows, FrontLoadedDeployments) {
  // fig. 10: most first-requests (=> deployments) land early in the trace.
  const auto services = generateFilteredServices(BigFlowsParams{});
  int inFirstMinute = 0;
  for (const auto& service : services) {
    if (service.firstRequestAt() < 60_s) ++inFirstMinute;
  }
  EXPECT_GT(inFirstMinute, static_cast<int>(services.size()) / 2);
}

TEST(BigFlows, AllRequestsWithinTraceDuration) {
  const BigFlowsParams params;
  const auto services = generateFilteredServices(params);
  for (const auto& service : services) {
    for (const auto& [time, client] : service.requests) {
      EXPECT_GE(time, SimTime::zero());
      EXPECT_LT(time, params.duration);
    }
  }
}

TEST(BigFlows, ClientsComeFromConfiguredFleet) {
  BigFlowsParams params;
  params.clientCount = 20;
  const auto services = generateFilteredServices(params);
  std::set<Ipv4> clients;
  for (const auto& service : services) {
    for (const auto& [time, client] : service.requests) clients.insert(client);
  }
  EXPECT_LE(clients.size(), 20u);
  EXPECT_GE(clients.size(), 15u);  // all 20 almost surely used
}

TEST(BigFlows, DeterministicPerSeedDifferentAcrossSeeds) {
  BigFlowsParams params;
  const auto a = generateBigFlows(params);
  const auto b = generateBigFlows(params);
  ASSERT_EQ(a.conversations.size(), b.conversations.size());
  for (std::size_t i = 0; i < a.conversations.size(); ++i) {
    EXPECT_EQ(a.conversations[i].requestTimes, b.conversations[i].requestTimes);
  }
  params.seed = 2;
  const auto c = generateBigFlows(params);
  bool anyDifferent = c.conversations.size() != a.conversations.size();
  for (std::size_t i = 0; !anyDifferent && i < a.conversations.size(); ++i) {
    anyDifferent = a.conversations[i].requestTimes != c.conversations[i].requestTimes;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(BigFlows, NoiseIsFilteredOut) {
  BigFlowsParams params;
  const auto trace = generateBigFlows(params);
  // The raw trace contains more conversations than the filtered services.
  std::set<Endpoint> rawDsts;
  for (const auto& conversation : trace.conversations) {
    rawDsts.insert(conversation.dst);
  }
  EXPECT_GT(rawDsts.size(), params.targetServices);
  const auto services = extractServices(trace, 80, params.minRequestsPerService);
  EXPECT_EQ(services.size(), params.targetServices);
}

// -------------------------------------------------------------- trace IO ----

TEST(TraceIo, RoundTripPreservesEverything) {
  BigFlowsParams params;
  params.targetServices = 5;
  params.targetRequests = 120;
  const Trace original = generateBigFlows(params);
  const std::string csv = traceToCsv(original);
  const auto parsed = traceFromCsv(csv, params.duration);
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  const Trace& loaded = parsed.value();
  EXPECT_EQ(loaded.totalRequests(), original.totalRequests());
  // The filter yields identical service sets.
  const auto a = extractServices(original, 80, params.minRequestsPerService);
  const auto b = extractServices(loaded, 80, params.minRequestsPerService);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].address, b[i].address);
    EXPECT_EQ(a[i].requestCount(), b[i].requestCount());
    EXPECT_EQ(a[i].firstRequestAt(), b[i].firstRequestAt());
  }
}

TEST(TraceIo, ParsesHandWrittenCsv) {
  const auto parsed = traceFromCsv(R"(src_ip,dst_ip,dst_port,time_seconds
# a comment
10.0.2.1,198.18.1.1,80,1.5
10.0.2.1,198.18.1.1,80,0.5
10.0.2.2,198.18.1.1,80,2.25
10.0.2.1,198.18.1.2,443,3.0
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().toString();
  const Trace& trace = parsed.value();
  ASSERT_EQ(trace.conversations.size(), 3u);
  EXPECT_EQ(trace.totalRequests(), 4u);
  // Request times are sorted within a conversation.
  EXPECT_EQ(trace.conversations[0].requestTimes[0], SimTime::seconds(0.5));
  EXPECT_EQ(trace.conversations[0].requestTimes[1], SimTime::seconds(1.5));
  // Duration inferred: latest request 3.0 -> 4 s ceiling... (3.0 + eps -> 3 s? rounded up to 3 s)
  EXPECT_GE(trace.duration, SimTime::seconds(3.0));
}

TEST(TraceIo, RejectsMalformedRows) {
  EXPECT_FALSE(traceFromCsv("").ok());
  EXPECT_FALSE(traceFromCsv("not,a,header,row\n1,2,3,4\n").ok());
  EXPECT_FALSE(
      traceFromCsv("src_ip,dst_ip,dst_port,time_seconds\nbad,row\n").ok());
  EXPECT_FALSE(traceFromCsv(
                   "src_ip,dst_ip,dst_port,time_seconds\nx,198.18.1.1,80,1\n")
                   .ok());
  EXPECT_FALSE(
      traceFromCsv(
          "src_ip,dst_ip,dst_port,time_seconds\n10.0.2.1,198.18.1.1,99999,1\n")
          .ok());
  EXPECT_FALSE(
      traceFromCsv(
          "src_ip,dst_ip,dst_port,time_seconds\n10.0.2.1,198.18.1.1,80,-1\n")
          .ok());
}

// Parameterized: the generator honours different target aggregates.
struct BigFlowsCase {
  std::size_t services;
  std::size_t requests;
};

class BigFlowsTargets : public ::testing::TestWithParam<BigFlowsCase> {};

TEST_P(BigFlowsTargets, HitsTargets) {
  BigFlowsParams params;
  params.targetServices = GetParam().services;
  params.targetRequests = GetParam().requests;
  const auto services = generateFilteredServices(params);
  EXPECT_EQ(services.size(), GetParam().services);
  std::size_t total = 0;
  for (const auto& service : services) total += service.requestCount();
  EXPECT_EQ(total, GetParam().requests);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BigFlowsTargets,
                         ::testing::Values(BigFlowsCase{1, 20},
                                           BigFlowsCase{5, 100},
                                           BigFlowsCase{42, 1708},
                                           BigFlowsCase{100, 5000}));

}  // namespace
}  // namespace edgesim::workload

namespace edgesim::metrics {
namespace {

using namespace timeliterals;

TEST(Recorder, RecordsAndSummarises) {
  Recorder recorder;
  for (int i = 1; i <= 5; ++i) {
    recorder.addSample("nginx/docker", SimTime::millis(i * 100).toSeconds());
  }
  const auto* series = recorder.series("nginx/docker");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->count(), 5u);
  EXPECT_DOUBLE_EQ(series->median(), 0.3);
  EXPECT_EQ(recorder.failureCount(), 0u);
}

TEST(Recorder, FailuresCountedSeparately) {
  Recorder recorder;
  recorder.addFailure();
  EXPECT_EQ(recorder.failureCount(), 1u);
  EXPECT_TRUE(recorder.seriesNames().empty());  // no sample recorded
}

TEST(Recorder, SummaryTableContainsSeries) {
  Recorder recorder;
  recorder.addSample("a/pull", 1.5);
  recorder.addSample("a/pull", 2.5);
  recorder.addSample("b/wait", 0.25);
  const auto table = recorder.summaryTable();
  const auto text = table.render();
  EXPECT_NE(text.find("a/pull"), std::string::npos);
  EXPECT_NE(text.find("b/wait"), std::string::npos);
  EXPECT_NE(text.find("2.0000"), std::string::npos);  // mean of a/pull
  EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Recorder, SeriesNamesSorted) {
  Recorder recorder;
  recorder.addSample("z", 1);
  recorder.addSample("a", 1);
  const auto names = recorder.seriesNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "z");
}

}  // namespace
}  // namespace edgesim::metrics
