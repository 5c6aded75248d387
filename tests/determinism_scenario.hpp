// Shared fixture for the determinism suite (determinism_test): one fixed
// controller lifecycle whose exported trace + metrics + counters are
// compared bytewise against committed goldens, plus the golden-file
// plumbing.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/testbed.hpp"
#include "util/strings.hpp"

#ifndef EDGESIM_GOLDEN_DIR
#define EDGESIM_GOLDEN_DIR "tests/golden"
#endif

namespace edgesim::core {

inline const Endpoint kScenarioNginxAddr{Ipv4(203, 0, 113, 10), 80};
inline const Endpoint kScenarioAsmAddr{Ipv4(203, 0, 113, 20), 80};

struct ScenarioResult {
  std::string traceJson;
  std::string metricsTable;
  std::string counters;

  std::string combined() const {
    return traceJson + "\n---\n" + metricsTable + "---\n" + counters;
  }
};

/// One fixed controller lifecycle: two services, cold deploys, coalesced
/// joiners, warm repeats, idle expiry driving a scale-down, and a
/// re-deployment after the memory forgot the clients.
inline ScenarioResult runScenario(std::uint64_t seed) {
  using namespace timeliterals;
  TestbedOptions options;
  options.seed = seed;
  options.clientCount = 6;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 3_s;
  options.controller.memoryScanPeriod = 500_ms;
  Testbed bed(options);

  bed.warmImageCache("nginx");
  bed.warmImageCache("asm");
  EXPECT_TRUE(bed.registerCatalogService("nginx", kScenarioNginxAddr).ok());
  EXPECT_TRUE(bed.registerCatalogService("asm", kScenarioAsmAddr).ok());

  Simulation& sim = bed.sim();
  // Cold deployment with joiners racing the first request.
  bed.requestCatalog(0, "nginx", kScenarioNginxAddr, "nginx/cold");
  sim.scheduleAt(100_ms, [&] {
    bed.requestCatalog(1, "nginx", kScenarioNginxAddr, "nginx/join");
    bed.requestCatalog(2, "nginx", kScenarioNginxAddr, "nginx/join");
  });
  // Second service, cold.
  sim.scheduleAt(2_s, [&] {
    bed.requestCatalog(3, "asm", kScenarioAsmAddr, "asm/cold");
  });
  // Warm repeats while flows are memorized.
  sim.scheduleAt(5_s, [&] {
    bed.requestCatalog(0, "nginx", kScenarioNginxAddr, "nginx/warm");
    bed.requestCatalog(3, "asm", kScenarioAsmAddr, "asm/warm");
  });
  // Then everyone goes idle: memory expires, services scale down.
  // A late client re-triggers a full cold deployment.
  sim.scheduleAt(20_s, [&] {
    bed.requestCatalog(4, "nginx", kScenarioNginxAddr, "nginx/recold");
  });
  sim.runUntil(40_s);

  ScenarioResult result;
  result.traceJson = bed.trace().chromeTraceJson(2);
  result.metricsTable = bed.recorder().summaryTable().render();
  result.counters = strprintf(
      "packet_ins=%llu resolved=%llu failed=%llu degraded=%llu "
      "scale_downs=%llu removals=%llu migrations=%llu memory=%zu\n",
      static_cast<unsigned long long>(bed.controller().packetInCount()),
      static_cast<unsigned long long>(bed.controller().requestsResolved()),
      static_cast<unsigned long long>(bed.controller().requestsFailed()),
      static_cast<unsigned long long>(bed.controller().requestsDegraded()),
      static_cast<unsigned long long>(bed.controller().scaleDowns()),
      static_cast<unsigned long long>(bed.controller().removals()),
      static_cast<unsigned long long>(bed.controller().migrations()),
      bed.controller().flowMemory().size());
  return result;
}

inline std::string goldenPath(std::uint64_t seed) {
  return strprintf("%s/determinism_seed%llu.txt", EDGESIM_GOLDEN_DIR,
                   static_cast<unsigned long long>(seed));
}

inline bool writeGoldenRequested() {
  const char* env = std::getenv("EDGESIM_WRITE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline std::string readFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  return text;
}

inline void writeFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << "cannot write " << path;
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
}

}  // namespace edgesim::core
