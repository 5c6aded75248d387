// Packet-in path cost of the telemetry registry: the acceptance gates for
// the one-cell registry are that telemetry adds no heap allocation to the
// controller's packet-in FlowMemory hit, and < 3% wall time.
//
// Protocol: kClients clients each request nginx every kRequestGap (6 s),
// past the switch's 5 s idle timeout and inside the FlowMemory timeout, so
// every measured request misses the flow table, reaches the controller as
// a packet-in, hits FlowMemory and reinstalls its two redirect flows --
// pathbench's reinstall_250 shape, on the real client / switch / controller
// packet path.  Tracing is off in both arms, so the arms differ only in the
// registry's counter bumps and histogram observes.  Simulated time runs in
// interleaved repetitions on a telemetry-enabled and a telemetry-disabled
// testbed.
//
// Allocation gate: heap allocations are counted (alloc_count.hpp) around
// every measured run; telemetry-on may add none over telemetry-off in any
// repetition.  The count is a property of the code, not of the host, so
// this gate cannot pass or fail on noise.
//
// Wall-time gate: the best (min) rep per arm cancels scheduler noise, and
// the whole measurement retries a few times before declaring failure,
// because a 3% gate on wall time is inherently jitter-prone on shared CI
// hosts (and can pass on noise too: best-rep ratios well below 1 occur).
//
// Output: BENCH_telemetry_overhead.json -- one sample per repetition of the
// accepted attempt: packet_in/sec_per_kreq/{telemetry_on,telemetry_off}
// (lower-is-better; gated loosely, the binary itself enforces the ratio)
// and packet_in/overhead_ratio, each rep's on/off pair.  The gated best-rep
// ratio is the report's `gated_ratio` meta entry; the allocation counts are
// the `allocs_per_req_on` / `allocs_per_req_off` / `added_allocs_max` meta
// entries.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "alloc_count.hpp"
#include "bench_output.hpp"
#include "core/testbed.hpp"
#include "ledger_check.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::bench;
using namespace edgesim::timeliterals;

namespace {

constexpr std::size_t kClients = 50;
constexpr SimTime kRequestGap = 6_s;
constexpr std::int64_t kWarmupRounds = 20;
constexpr std::size_t kMeasuredRounds = 400;  // x kClients requests per rep
constexpr std::size_t kMeasuredRequests = kMeasuredRounds * kClients;
constexpr int kReps = 5;
constexpr int kAttempts = 5;
constexpr double kMaxOverhead = 1.03;
/// Allocations telemetry may add per measured run of kMeasuredRequests.
constexpr std::int64_t kMaxAddedAllocations = 0;
const Endpoint kServiceAddr(Ipv4(203, 0, 113, 10), 80);

/// One arm: a testbed whose clients re-request on a fixed cycle.
class Arm {
 public:
  explicit Arm(bool telemetry) {
    TestbedOptions options;
    options.clientCount = kClients;
    options.clusterMode = ClusterMode::kDockerOnly;
    options.tracing = false;  // isolate the registry cost
    options.telemetry = telemetry;
    options.controller.memoryIdleTimeout = SimTime::seconds(3600.0);
    bed_ = std::make_unique<Testbed>(options);
    bed_->warmImageCache("nginx");
    ES_ASSERT(bed_->registerCatalogService("nginx", kServiceAddr).ok());

    // Client i requests at offset (i + 1/2) * gap / clients of each cycle,
    // so no request falls on a rep boundary.  The first cycle deploys nginx
    // and fills FlowMemory; from the second on every request is a
    // packet-in FlowMemory hit.
    for (std::size_t client = 0; client < kClients; ++client) {
      const double slot = (static_cast<double>(client) + 0.5) / kClients;
      bed_->sim().schedule(kRequestGap.scaled(slot),
                           [this, client] { requestForever(client); });
    }
    bed_->sim().runUntil(bed_->sim().now() + kRequestGap * kWarmupRounds);
    ES_ASSERT(failed_ == 0);
  }

  // Scheduled requests hold `this`.
  Arm(const Arm&) = delete;
  Arm& operator=(const Arm&) = delete;

  struct RunCost {
    double seconds = 0.0;
    std::uint64_t allocations = 0;
  };

  /// Wall seconds and heap allocations to run `rounds` request cycles;
  /// checks that every request in them was answered through a packet-in
  /// FlowMemory hit.
  RunCost runRounds(std::size_t rounds) {
    EdgeController& controller = bed_->controller();
    const std::uint64_t packetInsBefore = controller.packetInCount();
    const std::uint64_t deploysBefore =
        controller.dispatcher().deploymentsTriggered();
    const std::size_t answeredBefore = answered_;
    const SimTime until =
        bed_->sim().now() + kRequestGap * static_cast<std::int64_t>(rounds);
    const std::uint64_t allocationsBefore = threadAllocations();
    const auto start = std::chrono::steady_clock::now();
    bed_->sim().runUntil(until);
    RunCost cost;
    cost.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    cost.allocations = threadAllocations() - allocationsBefore;
    ES_ASSERT(failed_ == 0);
    ES_ASSERT(answered_ - answeredBefore == rounds * kClients);
    ES_ASSERT(controller.packetInCount() - packetInsBefore ==
              rounds * kClients);
    ES_ASSERT(controller.dispatcher().deploymentsTriggered() == deploysBefore);
    requireLedger(*bed_, "telemetry overhead");
    return cost;
  }

 private:
  void requestForever(std::size_t client) {
    bed_->requestCatalog(client, "nginx", kServiceAddr, "packet-in",
                         [this](Result<HttpExchange> result) {
                           if (result.ok()) {
                             ++answered_;
                           } else {
                             ++failed_;
                           }
                         });
    bed_->sim().schedule(kRequestGap,
                         [this, client] { requestForever(client); });
  }

  std::unique_ptr<Testbed> bed_;
  std::size_t answered_ = 0;
  std::size_t failed_ = 0;
};

struct Measurement {
  Samples onSeconds;   // per rep, telemetry enabled
  Samples offSeconds;  // per rep, telemetry disabled
  Samples repRatios;   // per rep, on / off
  std::uint64_t onAllocations = 0;   // summed over reps
  std::uint64_t offAllocations = 0;
  /// The most allocations telemetry added in one rep (negative: saved).
  std::int64_t addedAllocationsMax = INT64_MIN;
  /// The gated ratio: best (min) rep per arm.
  double ratio() const { return onSeconds.min() / offSeconds.min(); }
  double allocationsPerRequest(std::uint64_t total) const {
    return static_cast<double>(total) /
           static_cast<double>(kMeasuredRequests * onSeconds.count());
  }
};

Measurement measure() {
  Arm on(/*telemetry=*/true);
  Arm off(/*telemetry=*/false);

  Measurement m;
  for (int rep = 0; rep < kReps; ++rep) {
    // Interleave the arms so frequency drift hits both equally.
    const Arm::RunCost offCost = off.runRounds(kMeasuredRounds);
    const Arm::RunCost onCost = on.runRounds(kMeasuredRounds);
    m.onSeconds.add(onCost.seconds);
    m.offSeconds.add(offCost.seconds);
    m.repRatios.add(onCost.seconds / offCost.seconds);
    m.onAllocations += onCost.allocations;
    m.offAllocations += offCost.allocations;
    const std::int64_t added =
        static_cast<std::int64_t>(onCost.allocations) -
        static_cast<std::int64_t>(offCost.allocations);
    m.addedAllocationsMax = std::max(m.addedAllocationsMax, added);
  }
  return m;
}

/// Seconds per 1,000 requests, one sample per rep.
Samples perKiloRequest(const Samples& seconds) {
  Samples out;
  for (const double s : seconds.values()) out.add(s / kMeasuredRequests * 1e3);
  return out;
}

}  // namespace

int main() {
  Measurement best;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Measurement m = measure();
    std::printf("attempt %d: packet-in path %.1f ns/req with telemetry, "
                "%.1f ns/req without (ratio %.4f)\n",
                attempt, m.onSeconds.min() / kMeasuredRequests * 1e9,
                m.offSeconds.min() / kMeasuredRequests * 1e9, m.ratio());
    if (attempt == 1 || m.ratio() < best.ratio()) best = m;
    if (best.ratio() <= kMaxOverhead) break;
  }

  metrics::BenchReport report("telemetry_overhead");
  report.setMeta("requests", std::to_string(kMeasuredRequests));
  report.setMeta("reps", std::to_string(kReps));
  report.setMeta("gated_ratio", strprintf("%.6f", best.ratio()));
  report.setMeta("allocs_per_req_on",
                 strprintf("%.4f", best.allocationsPerRequest(
                                       best.onAllocations)));
  report.setMeta("allocs_per_req_off",
                 strprintf("%.4f", best.allocationsPerRequest(
                                       best.offAllocations)));
  report.setMeta("added_allocs_max",
                 std::to_string(best.addedAllocationsMax));
  report.addSeries("packet_in/sec_per_kreq/telemetry_on",
                   perKiloRequest(best.onSeconds));
  report.addSeries("packet_in/sec_per_kreq/telemetry_off",
                   perKiloRequest(best.offSeconds));
  report.addSeries("packet_in/overhead_ratio", best.repRatios);
  writeBenchReport(report);

  std::printf("allocation check: %.4f allocs/req with telemetry, %.4f "
              "without; at most %lld added per rep (gate: %lld)\n",
              best.allocationsPerRequest(best.onAllocations),
              best.allocationsPerRequest(best.offAllocations),
              static_cast<long long>(best.addedAllocationsMax),
              static_cast<long long>(kMaxAddedAllocations));
  bool ok = true;
  if (best.addedAllocationsMax > kMaxAddedAllocations) {
    std::fprintf(stderr,
                 "FAIL: telemetry adds %lld heap allocations per %zu "
                 "packet-in requests (gate: %lld)\n",
                 static_cast<long long>(best.addedAllocationsMax),
                 kMeasuredRequests,
                 static_cast<long long>(kMaxAddedAllocations));
    ok = false;
  }
  if (best.ratio() > kMaxOverhead) {
    std::fprintf(
        stderr, "FAIL: telemetry packet-in overhead is %.2f%% (gate: %.0f%%)\n",
        (best.ratio() - 1.0) * 100.0, (kMaxOverhead - 1.0) * 100.0);
    ok = false;
  } else {
    std::printf("overhead check: %.2f%% <= %.0f%% gate\n",
                (best.ratio() - 1.0) * 100.0, (kMaxOverhead - 1.0) * 100.0);
  }
  return ok ? 0 : 1;
}
