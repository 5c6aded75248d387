// Determinism regression guard for the controller.
//
// The discrete-event core is single-threaded and deterministic; refactors
// (FlowMemory's one table, the thread-safe recorders) must not perturb it.
// In the style of the FaultInvariant suite this runs a fixed controller
// scenario -- cold deployments, warm repeats, flow-memory expiry,
// scale-down, re-deploy -- and asserts that
//
//   1. the exported trace and metrics summary are BYTEWISE identical to
//      golden files captured from the pre-shard seed (bit-identical, not
//      just statistically equivalent);
//   2. re-running the scenario in the same process reproduces the same
//      bytes (no hidden global state).
//
// Regenerate the goldens (only when an intentional behavior change lands):
//   EDGESIM_WRITE_GOLDEN=1 ./build/tests/determinism_test
#include <gtest/gtest.h>

#include <string>

#include "determinism_scenario.hpp"
#include "mobility/attachment.hpp"
#include "mobility/handover.hpp"
#include "mobility/mobility_model.hpp"
#include "util/strings.hpp"
#include "workload/mobility_paths.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kNginxAddr = kScenarioNginxAddr;

/// The mobility variant: three clients commute from the EGS cell to the
/// far-edge cell while the handover manager re-steers their flows (first
/// handover deploys at the target, the rest re-steer warm).  The exported
/// bytes include the handover accounting, so any drift in the handover
/// state machine's event order shows up bytewise.
ScenarioResult runMobilityScenario(std::uint64_t seed) {
  TestbedOptions options;
  options.seed = seed;
  options.clientCount = 6;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  options.controller.memoryIdleTimeout = 30_s;
  options.controller.memoryScanPeriod = 500_ms;
  Testbed bed(options);

  bed.warmImageCache("nginx");
  EXPECT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  mobility::MobilityModel model({{"bs-egs", {0.0, 0.0}, "docker-egs"},
                                 {"bs-far", {1000.0, 0.0}, "docker-far"}});
  workload::CommuteWaveParams wave;
  wave.seed = seed * 101 + 3;
  wave.clients = 3;
  wave.origin = {0.0, 0.0};
  wave.destination = {1000.0, 0.0};
  wave.scatterRadius = 50.0;
  wave.firstDeparture = 6_s;
  wave.departureWindow = 4_s;
  wave.travelTime = 4_s;
  const auto paths = workload::commuteWavePaths(wave);
  for (std::size_t i = 0; i < wave.clients; ++i) {
    model.setPath(clientAddress(i), paths[i]);
  }
  mobility::AttachmentManager attachments(bed.sim(), model,
                                          {.scanPeriod = 500_ms});
  mobility::HandoverManager handovers(bed.controller(), attachments);
  handovers.start();

  Simulation& sim = bed.sim();
  sim.scheduleAt(1_s, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "nginx/pre-move");
    bed.requestCatalog(1, "nginx", kNginxAddr, "nginx/pre-move");
    bed.requestCatalog(2, "nginx", kNginxAddr, "nginx/pre-move");
  });
  sim.scheduleAt(20_s, [&] {
    bed.requestCatalog(0, "nginx", kNginxAddr, "nginx/post-move");
    bed.requestCatalog(1, "nginx", kNginxAddr, "nginx/post-move");
    bed.requestCatalog(2, "nginx", kNginxAddr, "nginx/post-move");
  });
  sim.runUntil(30_s);

  ScenarioResult result;
  result.traceJson = bed.trace().chromeTraceJson(2);
  result.metricsTable = bed.recorder().summaryTable().render();
  result.counters = strprintf(
      "packet_ins=%llu resolved=%llu failed=%llu degraded=%llu "
      "scale_downs=%llu memory=%zu handovers_started=%llu "
      "handovers_completed=%llu handovers_aborted=%llu triggered=%llu "
      "attachment_changes=%llu\n",
      static_cast<unsigned long long>(bed.controller().packetInCount()),
      static_cast<unsigned long long>(bed.controller().requestsResolved()),
      static_cast<unsigned long long>(bed.controller().requestsFailed()),
      static_cast<unsigned long long>(bed.controller().requestsDegraded()),
      static_cast<unsigned long long>(bed.controller().scaleDowns()),
      bed.controller().flowMemory().size(),
      static_cast<unsigned long long>(bed.controller().handoversStarted()),
      static_cast<unsigned long long>(bed.controller().handoversCompleted()),
      static_cast<unsigned long long>(
          bed.controller().handoversAbortedToCloud()),
      static_cast<unsigned long long>(handovers.handoversTriggered()),
      static_cast<unsigned long long>(attachments.attachmentChanges()));
  return result;
}

std::string mobilityGoldenPath(std::uint64_t seed) {
  return strprintf("%s/determinism_mobility_seed%llu.txt", EDGESIM_GOLDEN_DIR,
                   static_cast<unsigned long long>(seed));
}

class DeterminismGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismGolden, SingleWorkerMatchesPreShardSeedTrace) {
  const std::uint64_t seed = GetParam();
  const auto result = runScenario(seed);
  const std::string path = goldenPath(seed);
  if (writeGoldenRequested()) {
    writeFile(path, result.combined());
    GTEST_SKIP() << "golden written to " << path;
  }
  const std::string golden = readFile(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << " (run with EDGESIM_WRITE_GOLDEN=1 to create it)";
  // Bytewise, not structural: any drift in event order, span IDs, or
  // formatting is a determinism regression.
  EXPECT_EQ(result.combined(), golden);
}

TEST_P(DeterminismGolden, RerunIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const auto first = runScenario(seed);
  const auto second = runScenario(seed);
  EXPECT_EQ(first.combined(), second.combined());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismGolden, ::testing::Values(1u, 7u));

// Mobility keeps determinism: with the handover manager driving re-steers,
// runs are still bytewise reproducible under their own golden -- and since
// the base scenario above never constructs the mobility layer, the
// pre-mobility goldens stay bit-identical too (checked by the suite above).
class MobilityGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MobilityGolden, SeededMobilityMatchesGolden) {
  const std::uint64_t seed = GetParam();
  const auto result = runMobilityScenario(seed);
  const std::string path = mobilityGoldenPath(seed);
  if (writeGoldenRequested()) {
    writeFile(path, result.combined());
    GTEST_SKIP() << "golden written to " << path;
  }
  const std::string golden = readFile(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden " << path
      << " (run with EDGESIM_WRITE_GOLDEN=1 to create it)";
  EXPECT_EQ(result.combined(), golden);
}

TEST_P(MobilityGolden, RerunIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const auto first = runMobilityScenario(seed);
  const auto second = runMobilityScenario(seed);
  EXPECT_EQ(first.combined(), second.combined());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MobilityGolden, ::testing::Values(1u, 7u));

}  // namespace
}  // namespace edgesim::core
