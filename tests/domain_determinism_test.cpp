// DomainDeterminism: the time-domain engine must not perturb results.
//
// Three layers of guarantees, in decreasing strictness:
//
//   1. BIT-IDENTICAL: with the default single domain, the refactored
//      engine reproduces the pre-domain determinism goldens bytewise
//      (same files determinism_test checks -- asserted here through the
//      shared scenario so the guarantee is explicit about domains).
//   2. OUTCOME-IDENTICAL across partitionings: the per-cluster testbed
//      partition and multi-domain cluster traces must resolve exactly the
//      same requests with the same totals, even though cross-domain
//      management hops legally shift individual timestamps.
//   3. OUTCOME-IDENTICAL across drivers: the conservative parallel
//      scheduler must produce exactly the sequential results, event for
//      event, at any domain count.
//
// Runs under `ctest -L concurrency`, so the TSan CI job covers the
// parallel scheduler's locking.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "determinism_scenario.hpp"
#include "sim/domain_scheduler.hpp"
#include "util/lane_executor.hpp"
#include "workload/cluster_trace.hpp"

namespace edgesim::core {
namespace {

class DomainDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DomainDeterminism, SingleDomainReproducesGoldenBytewise) {
  const std::uint64_t seed = GetParam();
  const auto result =
      runScenario(seed, DomainPartition::kSingle);
  if (writeGoldenRequested()) {
    GTEST_SKIP() << "goldens are owned by determinism_test";
  }
  const std::string golden = readFile(goldenPath(seed));
  ASSERT_FALSE(golden.empty())
      << "missing golden " << goldenPath(seed)
      << " (run determinism_test with EDGESIM_WRITE_GOLDEN=1)";
  EXPECT_EQ(result.combined(), golden);
}

TEST_P(DomainDeterminism, PerClusterPartitionKeepsOutcomes) {
  // Timestamps may shift (cluster management calls pay the cross-domain
  // lookahead), so compare the order/timing-insensitive views: request
  // outcome totals and per-series counts.
  const std::uint64_t seed = GetParam();
  const auto single =
      runScenario(seed, DomainPartition::kSingle);
  const auto partitioned =
      runScenario(seed, DomainPartition::kPerCluster);
  EXPECT_EQ(single.counters, partitioned.counters);
  EXPECT_EQ(single.outcomes, partitioned.outcomes);
}

TEST_P(DomainDeterminism, PerClusterPartitionIsReproducible) {
  const std::uint64_t seed = GetParam();
  const auto first =
      runScenario(seed, DomainPartition::kPerCluster);
  const auto second =
      runScenario(seed, DomainPartition::kPerCluster);
  EXPECT_EQ(first.combined(), second.combined());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomainDeterminism, ::testing::Values(1u, 7u));

// ---- cluster trace: partition- and driver-independence ---------------------

workload::ClusterTraceParams traceParams(std::uint64_t seed) {
  workload::ClusterTraceParams params;
  params.seed = seed;
  params.clusters = 8;
  params.requestsPerCluster = 60;
  return params;
}

std::vector<workload::RequestOutcome> runTraceSequential(
    std::uint64_t seed, std::uint32_t domains) {
  Simulation sim(seed);
  workload::ClusterTraceRunner trace(sim, traceParams(seed), domains);
  trace.arm();
  sim.runUntil(trace.horizon());
  return trace.outcomes();
}

std::vector<workload::RequestOutcome> runTraceParallel(std::uint64_t seed,
                                                       std::uint32_t domains,
                                                       std::size_t workers) {
  Simulation sim(seed);
  workload::ClusterTraceRunner trace(sim, traceParams(seed), domains);
  trace.arm();
  LaneExecutor pool(workers);
  DomainScheduler scheduler(sim);
  scheduler.runParallel(pool, trace.horizon());
  return trace.outcomes();
}

class ClusterTraceDomains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterTraceDomains, DomainCountDoesNotChangeOutcomes) {
  const std::uint64_t seed = GetParam();
  const auto reference = runTraceSequential(seed, 1);
  ASSERT_EQ(reference.size(), 8u * 60u);
  EXPECT_EQ(runTraceSequential(seed, 2), reference);
  EXPECT_EQ(runTraceSequential(seed, 4), reference);
  EXPECT_EQ(runTraceSequential(seed, 8), reference);
}

TEST_P(ClusterTraceDomains, ParallelDriverMatchesSequential) {
  const std::uint64_t seed = GetParam();
  const auto reference = runTraceSequential(seed, 1);
  EXPECT_EQ(runTraceParallel(seed, 4, /*workers=*/4), reference);
  EXPECT_EQ(runTraceParallel(seed, 8, /*workers=*/4), reference);
  // One domain per cluster, more domains than workers: the lane mapping
  // multiplexes domains onto workers without changing results.
  EXPECT_EQ(runTraceParallel(seed, 8, /*workers=*/3), reference);
}

TEST_P(ClusterTraceDomains, ParallelRunIsReproducible) {
  const std::uint64_t seed = GetParam();
  const auto first = runTraceParallel(seed, 4, /*workers=*/4);
  const auto second = runTraceParallel(seed, 4, /*workers=*/4);
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterTraceDomains,
                         ::testing::Values(1u, 7u, 1234u));

}  // namespace
}  // namespace edgesim::core
