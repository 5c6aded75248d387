// scheduler_plugin -- writing and loading a custom Global Scheduler.
//
// The paper's controller loads its scheduler class dynamically from the
// configuration.  The C++ counterpart: register a factory under a name,
// then name it in the controller options/config.  This example implements a
// "sticky-capacity" scheduler that refuses to deploy on edges with little
// free capacity and demonstrates the fig. 3 "without waiting" behaviour
// against the built-in latency-first scheduler.
//
//   $ ./scheduler_plugin
#include <cstdio>

#include "core/testbed.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

namespace {

/// A custom Global Scheduler: behaves like latency-first, but only deploys
/// to clusters with at least `minFreeCapacity` free slots (imagine keeping
/// headroom for higher-priority tenants).
class StickyCapacityScheduler final : public GlobalScheduler {
 public:
  explicit StickyCapacityScheduler(int minFreeCapacity)
      : minFree_(minFreeCapacity) {}

  const char* name() const override { return "sticky-capacity"; }

  GlobalDecision decide(const ScheduleRequest& request) override {
    GlobalDecision decision;
    const ClusterView* bestRunning = nullptr;
    const ClusterView* bestDeployable = nullptr;
    for (const auto& cluster : request.clusters) {
      if (!cluster.readyInstances.empty()) {
        if (bestRunning == nullptr ||
            cluster.distanceRank < bestRunning->distanceRank) {
          bestRunning = &cluster;
        }
      }
      if (!cluster.isCloud && cluster.freeCapacity >= minFree_) {
        if (bestDeployable == nullptr ||
            cluster.distanceRank < bestDeployable->distanceRank) {
          bestDeployable = &cluster;
        }
      }
    }
    if (bestRunning != nullptr) {
      decision.fast = bestRunning->name;
      if (bestDeployable != nullptr &&
          bestDeployable->distanceRank < bestRunning->distanceRank) {
        decision.best = bestDeployable->name;  // deploy without waiting
      }
    } else if (bestDeployable != nullptr) {
      decision.fast = bestDeployable->name;  // deploy with waiting
    }
    return decision;
  }

 private:
  int minFree_;
};

}  // namespace

int main() {
  // Register the plugin; a real deployment would do this from a loaded
  // module, the controller config then selects it by name.
  SchedulerRegistry::instance().registerScheduler(
      "sticky-capacity", [](const Config& config) {
        const int minFree =
            static_cast<int>(config.getIntOr("min_free_capacity", 4));
        return std::make_unique<StickyCapacityScheduler>(minFree);
      });
  std::printf("registered schedulers:");
  for (const auto& name : SchedulerRegistry::instance().names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;  // two edges: near EGS + far Docker edge
  options.controller.scheduler = "sticky-capacity";
  Testbed bed(options);

  const Endpoint serviceAddress(Ipv4(203, 0, 113, 40), 80);
  if (!bed.registerCatalogService("nginx", serviceAddress).ok()) return 1;
  bed.warmImageCache("nginx");

  // Pre-run an instance at the FAR edge only.
  const ServiceModelPtr model = bed.controller().serviceAt(serviceAddress);
  bed.controller().dispatcher().ensureReady(model, *bed.farEdgeAdapter(),
                                            [](Result<Endpoint>) {});
  bed.sim().runUntil(5_s);

  // First request: the custom scheduler sends it to the far running
  // instance immediately AND deploys on the near edge in the background.
  bed.requestCatalog(0, "nginx", serviceAddress, "first",
                     [](Result<HttpExchange> result) {
                       if (result.ok()) {
                         std::printf(
                             "first request: %.4f s (served by the far edge "
                             "instance, no deployment wait)\n",
                             result.value().timings.timeTotal().toSeconds());
                       }
                     });
  bed.sim().runUntil(15_s);

  std::printf("background deployments triggered: %llu\n",
              static_cast<unsigned long long>(
                  bed.controller().dispatcher().backgroundDeployments()));
  std::printf("near-edge instances now ready: %zu\n",
              bed.dockerAdapter()->readyInstances(*model).size());
  return 0;
}
