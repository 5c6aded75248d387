// FlowMemory ablation (§V design choice): sweep the controller-side idle
// timeout and measure its effects on a steady trickle of repeat clients --
// packet-ins (controller load), redeployments (scale-down churn), and the
// per-request latency tail.
//
// The paper's design keeps SWITCH timeouts short (cheap tables) and relies
// on the controller's memory for fast re-redirects; this sweep shows why:
// a too-short memory timeout turns idle gaps into scale-downs and fresh
// deployment waits, a long one keeps instances warm.
#include <cstdio>

#include "experiment_common.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

namespace {

struct AblationResult {
  double medianLatency = 0;
  double p95Latency = 0;
  std::uint64_t packetIns = 0;
  std::uint64_t deployments = 0;
  std::uint64_t scaleDowns = 0;
};

AblationResult runWithTimeout(SimTime memoryTimeout) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = memoryTimeout;
  options.controller.switchIdleTimeout =
      std::min(memoryTimeout, SimTime::seconds(5.0));
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");

  // One client returns every 20 s for 10 minutes: idle gaps longer than
  // short memory timeouts, shorter than long ones.
  for (int i = 0; i < 30; ++i) {
    bed.sim().scheduleAt(SimTime::seconds(1.0 + 20.0 * i), [&bed, address] {
      bed.requestCatalog(0, "nginx", address, "trickle");
    });
  }
  bed.sim().runUntil(SimTime::seconds(660.0));
  requireLedger(bed, "flowmemory ablation");

  AblationResult result;
  const auto* trickle = bed.recorder().series("trickle");
  ES_ASSERT(trickle != nullptr);
  result.medianLatency = trickle->median();
  result.p95Latency = trickle->p95();
  result.packetIns = bed.controller().packetInCount();
  result.deployments = bed.controller().dispatcher().deploymentsTriggered();
  result.scaleDowns = bed.controller().scaleDowns();
  return result;
}

}  // namespace

int main() {
  const std::vector<double> timeoutsSeconds{1, 5, 15, 60, 300};
  std::vector<AblationResult> results(timeoutsSeconds.size());
  parallelFor(timeoutsSeconds.size(), 0, [&](std::size_t i) {
    results[i] = runWithTimeout(SimTime::seconds(timeoutsSeconds[i]));
  });

  std::printf("FlowMemory idle-timeout ablation: 30 requests, one every "
              "20 s, nginx on Docker (cached)\n\n");
  Table table({"memory timeout [s]", "median [s]", "p95 [s]", "packet-ins",
               "deployments", "scale-downs"});
  for (std::size_t i = 0; i < timeoutsSeconds.size(); ++i) {
    const auto& r = results[i];
    table.addRow({strprintf("%.0f", timeoutsSeconds[i]),
                  strprintf("%.4f", r.medianLatency),
                  strprintf("%.4f", r.p95Latency),
                  strprintf("%llu", (unsigned long long)r.packetIns),
                  strprintf("%llu", (unsigned long long)r.deployments),
                  strprintf("%llu", (unsigned long long)r.scaleDowns)});
  }
  metrics::BenchReport report("flowmemory_ablation");
  for (std::size_t i = 0; i < timeoutsSeconds.size(); ++i) {
    const std::string prefix =
        strprintf("timeout-%.0fs", timeoutsSeconds[i]);
    report.addScalar(prefix + "/median", results[i].medianLatency);
    report.addScalar(prefix + "/p95", results[i].p95Latency);
    report.addScalar(prefix + "/packet-ins",
                     static_cast<double>(results[i].packetIns));
    report.addScalar(prefix + "/deployments",
                     static_cast<double>(results[i].deployments));
    report.addScalar(prefix + "/scale-downs",
                     static_cast<double>(results[i].scaleDowns));
  }
  writeBenchReport(report);

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  std::printf("\nshape: timeouts shorter than the 20 s idle gap scale the "
              "instance down between visits (every request pays a fresh "
              "scale-up -> high p95); timeouts above the gap keep it warm "
              "(~ms requests, one deployment total).\n");
  return 0;
}
