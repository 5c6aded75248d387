// Allocation pin for the K8s API store: a commit shares its version with
// its watch events instead of copying the object, so the allocations of
// one update commit plus its delivery do not grow with the object's size.
// A one-container Deployment and a four-container one with env and label
// maps cost the same.  This binary links edgesim_alloc_count, which
// replaces the global operator new to count allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_count.hpp"
#include "k8s/api_server.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

namespace edgesim::k8s {
namespace {

Deployment makeDeployment(int containers) {
  Deployment deployment;
  deployment.meta.name = "web";
  deployment.meta.labels = {{"app", "web"}, {"tier", "frontend"}};
  deployment.spec.selector = {{"app", "web"}};
  deployment.spec.podTemplate.labels = deployment.meta.labels;
  for (int i = 0; i < containers; ++i) {
    container::ContainerSpec spec;
    spec.name = strprintf("container-with-a-long-name-%d", i);
    spec.image = *container::ImageRef::parse(
        strprintf("registry.example.com/team/image-%d:1.23.2", i));
    spec.labels = {{"edge.service", "web:80"},
                   {"edge.owner", "a-label-value-past-small-strings"}};
    spec.env = {{"MODEL_PATH", "/models/resnet50/saved_model"},
                {"WORKERS", "4"},
                {"LOG_LEVEL", "info-with-a-long-suffix"}};
    spec.volumeMounts = {{"/srv/data/web", "/usr/share/nginx/html"}};
    deployment.spec.podTemplate.spec.containers.push_back(spec);
  }
  return deployment;
}

/// Allocations of one status update's commit and its delivery to three
/// watchers, after a warm-up update of the same shape.
std::uint64_t updateAllocations(int containers) {
  Simulation sim(1);
  const ControlPlaneParams params;
  Store<Deployment> store(sim, params, "Deployment");
  int ready = 0;
  for (int i = 0; i < 3; ++i) {
    store.watch([&ready](const WatchEvent<Deployment>& event) {
      ready = event.object.status.readyReplicas;
    });
  }
  store.create(makeDeployment(containers));
  sim.run();

  const auto bump = [](Deployment& d) { ++d.status.readyReplicas; };
  store.update("web", bump);  // warm-up: the event queue's first growth
  sim.run();
  const std::uint64_t before = threadAllocations();
  store.update("web", bump);
  sim.run();
  const std::uint64_t allocations = threadAllocations() - before;
  EXPECT_EQ(ready, 2);
  return allocations;
}

TEST(K8sStoreAllocations, UpdateCommitDoesNotGrowWithTheObject) {
  const std::uint64_t small = updateAllocations(1);
  const std::uint64_t large = updateAllocations(4);
  EXPECT_EQ(large, small);
  // The update's and the delivery's closures; no copy of the object.
  EXPECT_LE(small, 2u);
}

}  // namespace
}  // namespace edgesim::k8s
