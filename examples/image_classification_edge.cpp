// image_classification_edge -- the paper's motivating IoT scenario.
//
// A bandwidth-hungry workload (83 KiB cat pictures POSTed to a ResNet50
// TensorFlow-Serving instance) is served at the edge instead of the cloud.
// The example contrasts three situations for the same client code:
//
//   1. cold edge, on-demand deployment WITH waiting (first request pays the
//      model-load time once),
//   2. warm edge (every following request: low latency, local bandwidth),
//   3. the counterfactual cloud path (what the clients would suffer
//      without a transparent edge).
//
// Offered load: both streams are 100 pictures, one every 400 ms (2.5
// pictures/s) round-robin over the 20 clients.  The edge container
// classifies one picture at a time (~180 ms of ResNet compute each), so it
// runs at ~45% utilisation and the warm-edge latency is compute plus the
// local network, not queueing.  The cloud instance is modelled without a
// queue; giving it the same schedule keeps the comparison like for like.
//
//   $ ./image_classification_edge
#include <cstdio>
#include <vector>

#include "core/testbed.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

namespace {

constexpr int kPictures = 100;
constexpr SimTime kPictureGap = 400_ms;

/// Picture `k` of a stream is sent by client k mod clientCount, k gaps in.
template <typename Send>
void scheduleStream(Testbed& bed, Send send) {
  for (int k = 0; k < kPictures; ++k) {
    const std::size_t client = static_cast<std::size_t>(k) % bed.clientCount();
    bed.sim().schedule(kPictureGap * k, [send, client] { send(client); });
  }
}

void printStats(const char* label, const Samples& samples) {
  std::printf("%-34s n=%3zu  median=%8.4f s  p95=%8.4f s\n", label,
              samples.count(), samples.median(), samples.p95());
}

}  // namespace

int main() {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);

  const Endpoint edgeService(Ipv4(203, 0, 113, 20), 80);
  if (!bed.registerCatalogService("resnet", edgeService).ok()) {
    std::fprintf(stderr, "registration failed\n");
    return 1;
  }
  bed.warmImageCache("resnet");

  // -- 1. first request: on-demand deployment with waiting ------------------
  bed.requestCatalog(0, "resnet", edgeService, "first",
                     [](Result<HttpExchange> result) {
                       if (result.ok()) {
                         std::printf(
                             "cold edge, first classification: %.3f s "
                             "(model load dominates)\n",
                             result.value().timings.timeTotal().toSeconds());
                       }
                     });
  bed.sim().runUntil(30_s);

  // -- 2. warm edge: the clients classify a stream of pictures -------------
  scheduleStream(bed, [&bed, edgeService](std::size_t client) {
    bed.requestCatalog(client, "resnet", edgeService, "warm-edge");
  });
  bed.sim().runUntil(90_s);

  // -- 3. counterfactual: the same requests served by the cloud -------------
  // (direct request to the always-on cloud instance; the controller routes
  // unregistered addresses over the WAN uplink).
  const ServiceModel* model = bed.controller().serviceAt(edgeService).get();
  const auto cloudInstances = bed.cloudAdapter()->readyInstances(*model);
  if (!cloudInstances.empty()) {
    const Endpoint cloudInstance = cloudInstances.front();
    scheduleStream(bed, [&bed, cloudInstance](std::size_t client) {
      bed.request(client, cloudInstance, "cloud", HttpMethod::kPost,
                  Bytes{83 * 1024});
    });
  }
  bed.sim().runUntil(180_s);

  std::printf("\n");
  if (const auto* warm = bed.recorder().series("warm-edge")) {
    printStats("warm edge classification", *warm);
  }
  if (const auto* cloud = bed.recorder().series("cloud")) {
    printStats("cloud classification (no edge)", *cloud);
  }
  if (const auto* warm = bed.recorder().series("warm-edge")) {
    if (const auto* cloud = bed.recorder().series("cloud")) {
      std::printf("\nedge saves %.1f ms median per picture (%.0f%% of the "
                  "cloud time is WAN)\n",
                  (cloud->median() - warm->median()) * 1e3,
                  100.0 * (cloud->median() - warm->median()) / cloud->median());
    }
  }
  return 0;
}
