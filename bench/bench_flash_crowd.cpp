// Flash-crowd scenario: the §VII combined-strategy payoff in action.
//
// A service is running with one replica when a flash crowd arrives
// (request rate jumps 10x for two minutes).  With the HPA managing the
// Kubernetes Deployment, replicas scale out and the latency tail recovers;
// without it, the single instance's queue grows.  This is the "automated
// management and scaling" benefit that justifies deploying to Kubernetes
// for future requests even though its initial scale-up is slower.
#include <cstdio>

#include "experiment_common.hpp"
#include "k8s/autoscaler.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

namespace {

struct PhaseStats {
  double median = 0;
  double p95 = 0;
  std::size_t count = 0;
};

struct CrowdResult {
  PhaseStats calm;
  PhaseStats crowd;
  PhaseStats late;  // last minute of the crowd (after scaling reacted)
  int maxReplicas = 1;
};

CrowdResult runCrowd(bool withAutoscaler) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kK8sOnly;
  options.seed = 11;
  // A flash crowd is new users: give the testbed enough distinct clients
  // that crowd requests arrive from fresh IPs (no memorized flows), so the
  // Local Scheduler can spread them over newly scaled replicas.
  options.clientCount = 60;
  options.controller.instancePolicy = "instance-round-robin";
  // Make the single instance saturable: 40 ms per request means one
  // replica sustains ~25 req/s.
  Testbed bed(options);
  auto& profiles = const_cast<core::AppProfileRegistry&>(
      bed.catalog().profiles());
  container::AppProfile heavy;
  heavy.startupDelay = SimTime::millis(60);
  heavy.requestCompute = SimTime::millis(40);
  heavy.responseBytes = Bytes{2048};
  profiles.add("nginx:1.23.2", heavy);

  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");
  // Keep instances up for the whole run.
  // (memory timeout default 60 s > any idle gap here)

  // Bring the K8s instance up.
  bool up = false;
  bed.requestCatalog(0, "nginx", address, "warmup",
                     [&up](Result<HttpExchange> r) { up = r.ok(); });
  bed.sim().runUntil(20_s);
  ES_ASSERT(up);

  const ServiceModel* model = bed.controller().serviceAt(address).get();
  std::unique_ptr<k8s::HorizontalAutoscaler> hpa;
  if (withAutoscaler) {
    k8s::AutoscalerParams params;
    params.deployment = model->uniqueName;
    params.minReplicas = 1;
    params.maxReplicas = 8;
    params.targetRequestsPerReplica = 12.0;
    params.syncPeriod = 5_s;
    auto counter = [&bed, model]() -> std::uint64_t {
      std::uint64_t total = 0;
      for (const auto* info :
           bed.dockerEngine().runtime().list({{"app", model->uniqueName}})) {
        total += info->requestsServed;
      }
      return total;
    };
    hpa = std::make_unique<k8s::HorizontalAutoscaler>(
        bed.sim(), *bed.k8sCluster(), params, counter);
  }

  // Load: 5 req/s calm (t=20..80), 50 req/s crowd (t=80..200), requests
  // spread over the clients; each goes through the transparent path (the
  // controller's memory/flows route per client, so new clients pick up
  // newly scaled replicas via the local scheduler).
  auto scheduleLoad = [&bed, address](SimTime from, SimTime to, double rps,
                                      std::size_t clientBase,
                                      std::size_t clientSpan,
                                      const std::string& series) {
    const double period = 1.0 / rps;
    std::size_t k = 0;
    for (double t = from.toSeconds(); t < to.toSeconds(); t += period, ++k) {
      const std::size_t client = clientBase + (k % clientSpan);
      bed.sim().scheduleAt(SimTime::seconds(t), [&bed, address, series, client] {
        bed.requestCatalog(client, "nginx", address, series);
      });
    }
  };
  scheduleLoad(20_s, 80_s, 5.0, 0, 10, "calm");
  scheduleLoad(80_s, 140_s, 30.0, 10, 25, "crowd-early");
  scheduleLoad(140_s, 200_s, 30.0, 35, 25, "crowd-late");

  // Track the replica high-water mark while the run progresses.
  int maxReplicas = 1;
  PeriodicTimer replicaWatch;
  replicaWatch.start(bed.sim(), 1_s, [&]() -> bool {
    maxReplicas = std::max(
        maxReplicas,
        static_cast<int>(bed.k8sAdapter()->readyInstances(*model).size()));
    return bed.sim().now() < SimTime::seconds(259.0);
  });
  bed.sim().runUntil(SimTime::seconds(260.0));
  requireLedger(bed, "flash crowd");

  CrowdResult result;
  auto fill = [&bed](const char* series, PhaseStats& stats) {
    if (const auto* s = bed.recorder().series(series)) {
      stats.median = s->median();
      stats.p95 = s->p95();
      stats.count = s->count();
    }
  };
  fill("calm", result.calm);
  fill("crowd-early", result.crowd);
  fill("crowd-late", result.late);
  result.maxReplicas = maxReplicas;
  return result;
}

}  // namespace

int main() {
  CrowdResult with{};
  CrowdResult without{};
  parallelFor(2, 2, [&with, &without](std::size_t i) {
    if (i == 0) {
      with = runCrowd(true);
    } else {
      without = runCrowd(false);
    }
  });

  std::printf("Flash crowd: 5 -> 30 req/s for two minutes, one K8s replica "
              "initially, 40 ms/request service\n\n");
  Table table({"configuration", "calm p95 [s]", "crowd p95 (1st min) [s]",
               "crowd p95 (2nd min) [s]", "max replicas"});
  table.addRow({"HPA enabled", strprintf("%.3f", with.calm.p95),
                strprintf("%.3f", with.crowd.p95),
                strprintf("%.3f", with.late.p95),
                strprintf("%d", with.maxReplicas)});
  table.addRow({"no autoscaler", strprintf("%.3f", without.calm.p95),
                strprintf("%.3f", without.crowd.p95),
                strprintf("%.3f", without.late.p95),
                strprintf("%d", without.maxReplicas)});
  metrics::BenchReport report("flash_crowd");
  report.setMeta("seed", "11");
  const auto addCrowd = [&report](const std::string& prefix,
                                  const CrowdResult& r) {
    report.addScalar(prefix + "/calm-p95", r.calm.p95);
    report.addScalar(prefix + "/crowd-early-p95", r.crowd.p95);
    report.addScalar(prefix + "/crowd-late-p95", r.late.p95);
    report.addScalar(prefix + "/max-replicas", r.maxReplicas);
  };
  addCrowd("hpa", with);
  addCrowd("no-autoscaler", without);
  writeBenchReport(report);

  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  std::printf("\nshape: both configurations suffer when the crowd hits; "
              "with the HPA the second minute recovers as replicas come "
              "up, without it the tail stays high -- the \"automated "
              "management and scaling\" the paper trades K8s's slower "
              "scale-up for (§VII).\n");
  return 0;
}
