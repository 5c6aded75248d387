// Workloads and the sample runner of the packet-path benchmark.
//
// A sample builds a full core::Testbed, brings it to steady state (service
// registration, image seeding, the deploy warm-up, then at least 120 s of
// simulated load at the workload's own rate), times a fixed number of
// requests, drains, and checks the run.  Load is open loop in simulated
// time: request i is due at t0 + i * gap and one chained generator event
// issues it, so every sample of one seed does the same simulated work and
// only host time varies.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/testbed.hpp"

namespace pathbench {

enum class Shape { kWarm, kReinstall, kCold };

struct Workload {
  const char* name;
  Shape shape;
  edgesim::core::ClusterMode mode;
  std::size_t clients;
  std::size_t services;
  /// Spacing between consecutive requests across all clients.
  edgesim::SimTime gap;
  /// TestbedOptions::tracing and ::telemetry.
  bool observability;
  /// Simulated load before timing starts (at least 120 s, see workload.cpp).
  edgesim::SimTime preloadSpan;
  /// Requests in one sample's timed phase (rounded up to whole
  /// client/service rounds).
  std::size_t timedRequests;
};

const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// Public counters of every layer, read at the timed-phase boundaries.
struct Counters {
  std::uint64_t events = 0;
  std::size_t heapDepth = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lookups = 0;  // switch matched packets + table misses
  std::size_t tableSize = 0;
  std::uint64_t packetIns = 0;
  std::uint64_t flowModsSent = 0;
  std::uint64_t flowModsAcked = 0;
  std::uint64_t deployments = 0;
  std::uint64_t degraded = 0;
  std::uint64_t memoryHits = 0;
  std::uint64_t spans = 0;
  std::uint64_t registryPulls = 0;
  std::uint64_t podStarts = 0;
  std::uint64_t allocations = 0;
};

struct SampleOptions {
  std::uint64_t seed = 1;
  /// Timed-phase length; 0 = the workload's own.
  std::size_t timedRequests = 0;
  /// Override the workload's observability setting.
  std::optional<bool> observability;
  /// Put the timing proxy in front of the controller and keep the switch's
  /// flow table at the end of the timed phase.
  bool instrument = false;
  /// Split the timed phase into this many parts of whole rounds and call
  /// `betweenParts` before the first part and after each one (its result
  /// lands in SampleResult::betweenPartsMs; its time is not timed).
  std::size_t timedParts = 1;
  std::function<double()> betweenParts;
};

struct SampleResult {
  double setupSeconds = 0;
  double timedSeconds = 0;
  /// Host us/request of each part of the timed phase.
  std::vector<double> partUsPerRequest;
  /// betweenParts() results: timedParts + 1 values when it was set.
  std::vector<double> betweenPartsMs;
  std::size_t timedRequests = 0;
  /// Tracing and telemetry were on (FlowMemory hits are counted only then).
  bool observability = false;
  std::size_t issued = 0;
  std::size_t answeredOk = 0;
  /// Every failed correctness, shape or steady-state check.
  std::vector<std::string> violations;

  // Simulated-outcome digest: identical for identical simulated work.
  double p50Seconds = 0;
  double p99Seconds = 0;
  std::uint64_t outcomeHash = 0;

  Counters start;  // at the start of the timed phase
  Counters end;    // at its end
  edgesim::SimTime timedSpan;

  // Instrumented samples only.
  double handlerSeconds = 0;
  std::vector<edgesim::openflow::FlowEntry> table;
  edgesim::SimTime tableAt;
  edgesim::SimTime sweepPeriod;
  std::size_t links = 0;

  double usPerRequest() const {
    return timedSeconds * 1e6 / static_cast<double>(timedRequests);
  }
  /// Per-timed-request delta of a counter.
  double perRequest(std::uint64_t Counters::*field) const {
    return static_cast<double>(end.*field - start.*field) /
           static_cast<double>(timedRequests);
  }
};

SampleResult runSample(const Workload& workload, const SampleOptions& options);

}  // namespace pathbench
