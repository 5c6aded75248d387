// multi_container_app -- deploying a two-container service (Table I's
// Nginx+Py) and demonstrating the combined Docker-then-Kubernetes strategy
// from the paper's discussion (§VII): answer the first request quickly from
// a Docker-started instance, and deploy the same definition to Kubernetes
// for managed, auto-scaled future capacity.
//
//   $ ./multi_container_app
#include <cstdio>

#include "core/testbed.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

int main() {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kBoth;  // Docker AND K8s on the EGS
  Testbed bed(options);

  const Endpoint serviceAddress(Ipv4(203, 0, 113, 30), 80);
  const auto registered =
      bed.registerCatalogService("nginx-py", serviceAddress);
  if (!registered.ok()) {
    std::fprintf(stderr, "registration failed: %s\n",
                 registered.error().toString().c_str());
    return 1;
  }
  const ServiceModel& model = *registered.value();
  std::printf("service %s: %zu containers (%s + %s)\n",
              model.uniqueName.c_str(), model.containers.size(),
              model.containers[0].image.toString().c_str(),
              model.containers[1].image.toString().c_str());
  bed.warmImageCache("nginx-py");

  // First request: the proximity scheduler picks the nearest cluster; with
  // both adapters at the same rank the Docker cluster is listed first, so
  // the fast path answers from Docker (<1 s even with two containers).
  bed.requestCatalog(0, "nginx-py", serviceAddress, "first",
                     [](Result<HttpExchange> result) {
                       if (result.ok()) {
                         std::printf("first request (Docker path): %.3f s\n",
                                     result.value().timings.timeTotal().toSeconds());
                       }
                     });
  bed.sim().runUntil(20_s);

  // §VII "best of both worlds": deploy the same definition to Kubernetes in
  // the background for future requests.
  std::printf("deploying the same definition to Kubernetes...\n");
  bool k8sReady = false;
  bed.controller().dispatcher().ensureReady(
      bed.controller().serviceAt(serviceAddress), *bed.k8sAdapter(),
      [&](Result<Endpoint> result) {
        if (result.ok()) {
          k8sReady = true;
          std::printf("Kubernetes replica ready at %s\n",
                      result.value().toString().c_str());
        } else {
          std::fprintf(stderr, "K8s deployment failed: %s\n",
                       result.error().toString().c_str());
        }
      });
  bed.sim().runUntil(60_s);

  if (k8sReady) {
    // Both clusters now expose ready instances of the same service.
    const auto dockerInstances = bed.dockerAdapter()->readyInstances(model);
    const auto k8sInstances = bed.k8sAdapter()->readyInstances(model);
    std::printf("ready instances: %zu on Docker, %zu on Kubernetes\n",
                dockerInstances.size(), k8sInstances.size());

    // The K8s Deployment object exists with managed replicas; scaling out
    // for a flash crowd is one API call away.
    bed.k8sCluster()->scaleDeployment(model.uniqueName, 3);
    bed.sim().runUntil(120_s);
    std::printf("after scale-out: %zu Kubernetes instances\n",
                bed.k8sAdapter()->readyInstances(model).size());
  }

  // A few more client requests, load-balanced by memorized flows.
  for (std::size_t client = 0; client < 6; ++client) {
    bed.requestCatalog(client, "nginx-py", serviceAddress, "steady");
  }
  bed.sim().runUntil(150_s);
  if (const auto* steady = bed.recorder().series("steady")) {
    std::printf("steady-state requests: median %.4f s over %zu requests\n",
                steady->median(), steady->count());
  }
  return 0;
}
