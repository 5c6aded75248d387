// §VII "best of both worlds": launch the first instance via Docker for a
// fast first response, then deploy the same definition to Kubernetes for
// managed future capacity -- compared against Docker-only and K8s-only.
#include <cstdio>
#include <optional>

#include "experiment_common.hpp"

using namespace edgesim;
using namespace edgesim::bench;

namespace {

struct StrategyResult {
  double firstRequest = -1;
  double k8sManagedAt = -1;  // when a K8s replica became ready (-1: never)
};

StrategyResult runStrategy(ClusterMode mode, bool alsoDeployK8s) {
  TestbedOptions options;
  options.clusterMode = mode;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService("nginx", address).ok());
  bed.warmImageCache("nginx");

  StrategyResult result;
  bed.requestCatalog(0, "nginx", address, "first",
                     [&result](Result<HttpExchange> r) {
                       if (r.ok()) {
                         result.firstRequest =
                             r.value().timings.timeTotal().toSeconds();
                       }
                     });

  if (alsoDeployK8s) {
    // Fire the K8s deployment the moment the controller sees the request
    // (here: right away), like the combined strategy suggests.
    const ServiceModelPtr model = bed.controller().serviceAt(address);
    bed.controller().dispatcher().ensureReady(
        model, *bed.k8sAdapter(), [&result, &bed](Result<Endpoint> r) {
          if (r.ok()) result.k8sManagedAt = bed.sim().now().toSeconds();
        });
  }
  bed.sim().runUntil(60_s);
  requireLedger(bed, "combined strategy");
  return result;
}

}  // namespace

int main() {
  std::printf("Combined Docker+Kubernetes strategy (§VII), nginx, cached\n\n");

  const auto dockerOnly = runStrategy(ClusterMode::kDockerOnly, false);
  const auto k8sOnly = runStrategy(ClusterMode::kK8sOnly, false);
  const auto combined = runStrategy(ClusterMode::kBoth, true);

  Table table({"Strategy", "first response [s]", "K8s-managed replica [s]"});
  table.addRow({"Docker only", strprintf("%.3f", dockerOnly.firstRequest),
                "never"});
  table.addRow({"Kubernetes only", strprintf("%.3f", k8sOnly.firstRequest),
                strprintf("%.3f", k8sOnly.firstRequest)});
  table.addRow({"combined (Docker first, K8s follows)",
                strprintf("%.3f", combined.firstRequest),
                combined.k8sManagedAt < 0
                    ? "never"
                    : strprintf("%.3f", combined.k8sManagedAt)});
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  std::printf("\nshape: the combined strategy answers the first request as "
              "fast as Docker-only while a Kubernetes-managed replica is "
              "ready a few seconds later -- both benefits at once.\n");

  metrics::BenchReport report("combined_strategy");
  report.addScalar("docker-only/first-response", dockerOnly.firstRequest);
  report.addScalar("k8s-only/first-response", k8sOnly.firstRequest);
  report.addScalar("combined/first-response", combined.firstRequest);
  if (combined.k8sManagedAt >= 0) {
    report.addScalar("combined/k8s-managed-at", combined.k8sManagedAt);
  }
  writeBenchReport(report);
  return 0;
}
