#include "workload/bigflows.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace edgesim::workload {

namespace {

/// Split `total` requests across `n` services with a Zipf-like share while
/// respecting a per-service minimum.  Deterministic.
std::vector<std::size_t> zipfCounts(std::size_t total, std::size_t n,
                                    std::size_t minimum, double exponent) {
  ES_ASSERT(total >= n * minimum);
  std::vector<double> weights(n);
  double weightSum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    weightSum += weights[i];
  }
  const std::size_t spare = total - n * minimum;
  std::vector<std::size_t> counts(n, minimum);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto extra = static_cast<std::size_t>(
        std::floor(static_cast<double>(spare) * weights[i] / weightSum));
    counts[i] += extra;
    assigned += extra;
  }
  // Distribute the rounding remainder to the hottest services.
  std::size_t remainder = spare - assigned;
  for (std::size_t i = 0; remainder > 0; i = (i + 1) % n, --remainder) {
    ++counts[i];
  }
  return counts;
}

}  // namespace

Trace generateBigFlows(const BigFlowsParams& params) {
  ES_ASSERT(params.targetServices >= 1);
  ES_ASSERT(params.targetRequests >=
            params.targetServices * params.minRequestsPerService);
  Rng rng(params.seed);
  Trace trace;
  trace.duration = params.duration;

  const auto counts =
      zipfCounts(params.targetRequests, params.targetServices,
                 params.minRequestsPerService, params.zipfExponent);

  const double horizon = params.duration.toSeconds();

  // --- the 42 "real" edge services --------------------------------------
  for (std::size_t s = 0; s < params.targetServices; ++s) {
    // Public destination addresses: 198.18.x.y (benchmark address space).
    const Endpoint dst(
        Ipv4(198, 18, static_cast<std::uint8_t>(s / 250 + 1),
             static_cast<std::uint8_t>(s % 250 + 1)),
        80);

    // First request: a mixture -- the capture starts mid-activity, so a
    // burst of services appears within the first seconds (fig. 10 shows up
    // to eight deployments per second early), the rest arrive with an
    // exponential tail.
    double first;
    if (rng.chance(0.35)) {
      first = rng.uniform(0.0, 2.0);
    } else {
      first = rng.exponential(params.firstRequestMean.toSeconds());
      while (first >= horizon * 0.9) {
        first = rng.exponential(params.firstRequestMean.toSeconds());
      }
    }

    // Remaining requests: uniform over (first, horizon).
    std::vector<double> times;
    times.push_back(first);
    for (std::size_t r = 1; r < counts[s]; ++r) {
      times.push_back(rng.uniform(first, horizon));
    }
    std::sort(times.begin(), times.end());

    // Conversations: group requests by client (the paper's clients are 20
    // Raspberry Pis; each request is attributed to one of them).
    std::vector<TcpConversation> perClient(params.clientCount);
    for (std::size_t c = 0; c < params.clientCount; ++c) {
      perClient[c].srcIp = clientAddress(c);
      perClient[c].dst = dst;
    }
    for (const double t : times) {
      const auto c = static_cast<std::size_t>(
          rng.uniformInt(0, params.clientCount - 1));
      perClient[c].requestTimes.push_back(SimTime::seconds(t));
    }
    for (auto& conversation : perClient) {
      if (!conversation.requestTimes.empty()) {
        trace.conversations.push_back(std::move(conversation));
      }
    }
  }

  // --- noise discarded by the filter -------------------------------------
  // Conversations on other ports (e.g. 443) -- any volume, filtered out.
  for (std::size_t i = 0; i < params.noiseConversationsOtherPorts; ++i) {
    TcpConversation conversation;
    conversation.srcIp =
        clientAddress(rng.uniformInt(0, params.clientCount - 1));
    conversation.dst = Endpoint(
        Ipv4(198, 19, 1, static_cast<std::uint8_t>(i % 250 + 1)),
        rng.chance(0.7) ? 443 : static_cast<std::uint16_t>(
                                    rng.uniformInt(1024, 65535)));
    const auto requestCount = rng.uniformInt(1, 50);
    for (std::uint64_t r = 0; r < requestCount; ++r) {
      conversation.requestTimes.push_back(
          SimTime::seconds(rng.uniform(0.0, horizon)));
    }
    std::sort(conversation.requestTimes.begin(),
              conversation.requestTimes.end());
    trace.conversations.push_back(std::move(conversation));
  }
  // Port-80 destinations below the minimum request threshold.
  for (std::size_t i = 0; i < params.noiseDestinationsBelowMinimum; ++i) {
    TcpConversation conversation;
    conversation.srcIp =
        clientAddress(rng.uniformInt(0, params.clientCount - 1));
    conversation.dst =
        Endpoint(Ipv4(198, 20, 1, static_cast<std::uint8_t>(i % 250 + 1)), 80);
    const auto requestCount =
        rng.uniformInt(1, params.minRequestsPerService - 1);
    for (std::uint64_t r = 0; r < requestCount; ++r) {
      conversation.requestTimes.push_back(
          SimTime::seconds(rng.uniform(0.0, horizon)));
    }
    std::sort(conversation.requestTimes.begin(),
              conversation.requestTimes.end());
    trace.conversations.push_back(std::move(conversation));
  }

  return trace;
}

std::vector<ServiceLoad> generateFilteredServices(
    const BigFlowsParams& params) {
  const Trace trace = generateBigFlows(params);
  auto services = extractServices(trace, 80, params.minRequestsPerService);
  ES_ASSERT_MSG(services.size() == params.targetServices,
                "bigflows generator: filter did not yield the target count");
  std::size_t total = 0;
  for (const auto& service : services) total += service.requestCount();
  ES_ASSERT_MSG(total == params.targetRequests,
                "bigflows generator: request total mismatch");
  return services;
}

}  // namespace edgesim::workload
