// §VIII future-work evaluation: containers vs a Wasm-style serverless
// runtime under transparent access -- first-request latency for every
// artifact-cache state, per supported Table I service.
//
// Expected shape (Gackstatter et al. [7]): serverless cold starts are
// one to two orders of magnitude below container starts, while the fully
// cold path (artifact download) narrows the gap (modules are small);
// heavyweight services (ResNet) and multi-container apps don't fit a
// function at all -- the flexibility trade-off the paper notes.
#include <cstdio>

#include "experiment_common.hpp"

using namespace edgesim;
using namespace edgesim::bench;

namespace {

enum class CacheState { kCold, kArtifactCached, kInstanceScaledToZero };

const char* cacheLabel(CacheState state) {
  switch (state) {
    case CacheState::kCold: return "cold (nothing cached)";
    case CacheState::kArtifactCached: return "artifact cached";
    case CacheState::kInstanceScaledToZero: return "created, scaled to zero";
  }
  return "?";
}

double containerFirstRequest(const std::string& key, CacheState state) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService(key, address).ok());
  if (state != CacheState::kCold) bed.warmImageCache(key);
  if (state == CacheState::kInstanceScaledToZero) {
    const auto* model = bed.controller().serviceAt(address).get();
    bool done = false;
    bed.dockerAdapter()->createService(*model, [&done](Status s) {
      ES_ASSERT(s.ok());
      done = true;
    });
    bed.sim().runUntil(5_s);
    ES_ASSERT(done);
  }
  double total = -1;
  bed.requestCatalog(0, key, address, "t", [&total](Result<HttpExchange> r) {
    ES_ASSERT(r.ok());
    total = r.value().timings.timeTotal().toSeconds();
  });
  bed.sim().runUntil(120_s);
  requireLedger(bed, "serverless comparison, container");
  return total;
}

double serverlessFirstRequest(const std::string& key, CacheState state) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kServerlessOnly;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService(key, address).ok());
  const auto* model = bed.controller().serviceAt(address).get();
  if (!core::ServerlessAdapter::supportsService(*model)) return -1;
  const auto spec = core::ServerlessAdapter::toFunctionSpec(*model);
  if (state != CacheState::kCold) {
    bed.faasRuntime()->fetchModule(spec, [](Status) {});
    bed.sim().runUntil(1_s);
  }
  if (state == CacheState::kInstanceScaledToZero) {
    bed.faasRuntime()->deployFunction(spec, [](Status) {});
    bed.sim().runUntil(2_s);
  }
  double total = -1;
  bed.requestCatalog(0, key, address, "t", [&total](Result<HttpExchange> r) {
    ES_ASSERT(r.ok());
    total = r.value().timings.timeTotal().toSeconds();
  });
  bed.sim().runUntil(60_s);
  requireLedger(bed, "serverless comparison, serverless");
  return total;
}

}  // namespace

int main() {
  std::printf("Containers vs serverless (Wasm) under transparent access: "
              "first-request time [s]\n\n");
  Table table({"Service", "cache state", "container (Docker) [s]",
               "serverless (Wasm) [s]", "speedup"});
  metrics::BenchReport report("serverless_comparison");
  const auto stateKey = [](CacheState state) {
    switch (state) {
      case CacheState::kCold: return "cold";
      case CacheState::kArtifactCached: return "cached";
      case CacheState::kInstanceScaledToZero: return "scaled-to-zero";
    }
    return "?";
  };
  for (const auto& key : tableOneKeys()) {
    for (const CacheState state :
         {CacheState::kCold, CacheState::kArtifactCached,
          CacheState::kInstanceScaledToZero}) {
      const double container = containerFirstRequest(key, state);
      const double faas = serverlessFirstRequest(key, state);
      report.addScalar(key + "/" + stateKey(state) + "/container", container);
      if (faas >= 0) {
        report.addScalar(key + "/" + stateKey(state) + "/serverless", faas);
      }
      table.addRow({key, cacheLabel(state), strprintf("%.3f", container),
                    faas < 0 ? "(does not fit a function)"
                             : strprintf("%.3f", faas),
                    faas < 0 ? "-" : strprintf("%.0fx", container / faas)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
