// Fault-resilience acceptance bench: 100% pull failure on the near edge
// cluster, yet every client request still completes.
//
// One persistent kClusterRpc fault makes every image pull on "docker-egs"
// fail.  The dispatcher retries (capped exponential backoff), exhausts the
// retry budget, degrades the first resolves to the cloud instance, and
// quarantines the failing cluster; once quarantined, the scheduler deploys
// on the healthy far-edge cluster instead.  The healthy run is printed next
// to the faulty one so the cost of degradation (cloud RTT on the early
// requests) is visible.
#include <cstdio>
#include <optional>

#include "experiment_common.hpp"
#include "fault/fault_plan.hpp"

namespace {

using namespace edgesim;
using namespace edgesim::bench;

struct RunResult {
  int issued = 0;
  int completed = 0;
  int failed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t quarantines = 0;
  double median = 0.0;
  double p95 = 0.0;
};

RunResult runScenario(bool faulty) {
  TestbedOptions options;
  options.seed = 7;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;  // healthy sibling the quarantine can route to
  options.controller.deployRetries = 2;
  options.controller.retryBackoff = 100_ms;
  options.controller.quarantineCooldown = 120_s;
  Testbed bed(options);

  // Persistent 100% pull failure on the near edge cluster.  The plan must
  // outlive the simulation run, hence it lives in this frame.
  fault::FaultPlan plan(1234);
  if (faulty) {
    fault::FaultSpec spec;
    spec.site = fault::FaultSite::kClusterRpc;
    spec.target = "docker-egs/pull";
    spec.message = "registry unreachable from docker-egs";
    plan.add(spec);
    bed.injectFaults(plan);
  }

  const Endpoint addr{Ipv4(203, 0, 113, 10), 80};
  if (!bed.registerCatalogService("nginx", addr).ok()) return {};

  RunResult result;
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t client = static_cast<std::size_t>(i) % bed.clientCount();
    bed.sim().scheduleAt(SimTime::seconds(1.5 * i), [&, client] {
      ++result.issued;
      bed.requestCatalog(client, "nginx", addr, "lat",
                         [&result](Result<HttpExchange> r) {
                           if (r.ok()) {
                             ++result.completed;
                           } else {
                             ++result.failed;
                           }
                         });
    });
  }
  bed.sim().runUntil(SimTime::seconds(240.0));
  requireLedger(bed, "fault resilience");

  result.degraded = bed.controller().requestsDegraded();
  result.retries = bed.controller().dispatcher().retries();
  result.fallbacks = bed.controller().dispatcher().fallbacks();
  result.quarantines = bed.controller().dispatcher().quarantines();
  if (const auto* s = bed.recorder().series("lat")) {
    result.median = s->median();
    result.p95 = s->p95();
  }
  return result;
}

}  // namespace

int main() {
  const RunResult faulty = runScenario(true);
  const RunResult healthy = runScenario(false);

  std::printf("Fault resilience: persistent 100%% pull failure on the near "
              "edge cluster (docker-egs),\n40 client requests over 60 s, "
              "retry budget 2, far edge + cloud available\n\n");
  Table table({"configuration", "issued", "completed", "failed", "degraded",
               "retries", "fallbacks", "quarantines", "median [s]",
               "p95 [s]"});
  const auto row = [&table](const char* name, const RunResult& r) {
    table.addRow({name, strprintf("%d", r.issued), strprintf("%d", r.completed),
                  strprintf("%d", r.failed),
                  strprintf("%llu", static_cast<unsigned long long>(r.degraded)),
                  strprintf("%llu", static_cast<unsigned long long>(r.retries)),
                  strprintf("%llu",
                            static_cast<unsigned long long>(r.fallbacks)),
                  strprintf("%llu",
                            static_cast<unsigned long long>(r.quarantines)),
                  strprintf("%.3f", r.median), strprintf("%.3f", r.p95)});
  };
  row("pull fault on docker-egs", faulty);
  row("healthy", healthy);
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());

  metrics::BenchReport report("fault_resilience");
  report.setMeta("seed", "7");
  const auto addRun = [&report](const std::string& prefix,
                                const RunResult& r) {
    report.addScalar(prefix + "/median", r.median);
    report.addScalar(prefix + "/p95", r.p95);
    report.addScalar(prefix + "/completed", r.completed);
    report.addScalar(prefix + "/failed", r.failed);
    report.addScalar(prefix + "/retries", static_cast<double>(r.retries));
    report.addScalar(prefix + "/fallbacks",
                     static_cast<double>(r.fallbacks));
    report.addScalar(prefix + "/quarantines",
                     static_cast<double>(r.quarantines));
  };
  addRun("pull-fault", faulty);
  addRun("healthy", healthy);
  writeBenchReport(report);

  const bool pass = faulty.issued > 0 && faulty.completed == faulty.issued &&
                    faulty.failed == 0 && faulty.retries > 0 &&
                    faulty.fallbacks > 0 && faulty.quarantines > 0;
  std::printf("\nshape: early requests pay retries plus the cloud fallback "
              "RTT; after the quarantine kicks in the scheduler deploys on "
              "the far edge and the tail settles near the healthy run.\n");
  std::printf("%s: every request completed under a total pull outage "
              "(%d/%d, %llu retries, %llu cloud fallbacks, %llu "
              "quarantines)\n",
              pass ? "PASS" : "FAIL", faulty.completed, faulty.issued,
              static_cast<unsigned long long>(faulty.retries),
              static_cast<unsigned long long>(faulty.fallbacks),
              static_cast<unsigned long long>(faulty.quarantines));
  return pass ? 0 : 1;
}
