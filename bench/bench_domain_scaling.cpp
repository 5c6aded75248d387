// Wall-clock scaling of the conservative time-domain scheduler.
//
// One 16-cluster ClusterTrace (~38k events, each carrying ~50us of
// modeled per-event work) runs at 1, 2, 4 and 8 time domains.  Domains
// advance on DomainScheduler::runParallel over an 8-worker LaneExecutor;
// the modeled work is a sleep, not CPU spin, so domains overlap on the
// pool regardless of host core count -- what the bench measures is the
// scheduler's ability to keep domains advancing independently under the
// conservative lookahead bound, not raw parallel FLOPs.
//
// Every configuration must reproduce the exact per-request outcomes of
// the single-domain run (the trace is infinite-server and pre-drawn, so
// any divergence is an engine bug), and the binary enforces the scaling
// floor from the design target: >= 3x wall-clock speedup at 8 domains
// vs 1 on the 16-cluster trace.
//
// Every run carries a metrics-only telemetry::DomainProbe (the observer
// overhead gate lives in bench_domain_observability_overhead), which
// yields the per-domain STALL FRACTION -- wall seconds spent blocked on an
// inbound channel's lookahead bound, over the run's makespan.  With
// $EDGESIM_DOMAIN_OBS_OUT set, an extra instrumented 8-domain run exports
// a domain trace (domain_trace.json) plus a telemetry snapshot pair for
// tools/critical_path and telemetry_top (nightly CI).
//
// Output: BENCH_domain_scaling.json.  The committed baseline keeps the
// domains/sec_per_kevent/* scalars (wall seconds per 1000 dispatched
// events -- inverse throughput, lower-is-better) and the per-domain
// domains/stall_fraction/* series (lower-is-better; median gated);
// speedup ratios and domains/parallel_efficiency/* ride along for humans
// but stay out of the lower-is-better gate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_output.hpp"
#include "sim/domain_scheduler.hpp"
#include "telemetry/domain_probe.hpp"
#include "trace/trace_recorder.hpp"
#include "util/lane_executor.hpp"
#include "util/strings.hpp"
#include "workload/cluster_trace.hpp"

using namespace edgesim;
using namespace edgesim::bench;
using namespace edgesim::workload;

namespace {

constexpr std::uint32_t kClusters = 16;
constexpr std::uint32_t kRequestsPerCluster = 800;
constexpr std::size_t kWorkers = 8;
constexpr auto kEventWork = std::chrono::microseconds(50);

struct RunResult {
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  std::vector<RequestOutcome> outcomes;
  /// Per-domain stalled-wall / makespan, from the probe's stall histograms.
  std::vector<double> stallFractions;
};

RunResult runConfig(std::uint32_t domains) {
  Simulation sim(/*seed=*/1);
  ClusterTraceParams params;
  params.clusters = kClusters;
  params.requestsPerCluster = kRequestsPerCluster;
  ClusterTraceRunner trace(sim, params, domains,
                           [] { std::this_thread::sleep_for(kEventWork); });
  telemetry::MetricsRegistry registry;
  telemetry::DomainProbe probe(sim, &registry, /*recorder=*/nullptr);
  trace.arm();

  LaneExecutor pool(kWorkers);
  DomainScheduler scheduler(sim);
  const auto wallStart = std::chrono::steady_clock::now();
  scheduler.runParallel(pool, trace.horizon());
  RunResult result;
  result.wallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wallStart)
                           .count();
  result.events = sim.processedEvents();
  result.outcomes = trace.outcomes();
  ES_ASSERT(result.outcomes.size() ==
            static_cast<std::size_t>(kClusters) * kRequestsPerCluster);
  const telemetry::TelemetrySnapshot snap = registry.snapshot(0.0);
  for (const auto& hist : snap.histograms) {
    if (hist.name != "edgesim_domain_stall_wall_seconds") continue;
    result.stallFractions.push_back(hist.sum / result.wallSeconds);
  }
  return result;
}

/// Instrumented 8-domain run (metrics + trace recorder) exported into
/// `dir` for the nightly observability smoke: domain_trace.json for
/// critical_path, snapshot_000001.{json,prom} for telemetry_top.
int exportObservabilityRun(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  Simulation sim(/*seed=*/1);
  ClusterTraceParams params;
  params.clusters = kClusters;
  params.requestsPerCluster = kRequestsPerCluster;
  ClusterTraceRunner trace(sim, params, /*domains=*/8,
                           [] { std::this_thread::sleep_for(kEventWork); });
  telemetry::MetricsRegistry registry;
  trace::TraceRecorder recorder;
  telemetry::DomainProbe probe(sim, &registry, &recorder);
  trace.arm();
  LaneExecutor pool(kWorkers);
  DomainScheduler scheduler(sim);
  scheduler.runParallel(pool, trace.horizon());

  const std::string tracePath = dir + "/domain_trace.json";
  {
    std::ofstream out(tracePath);
    out << recorder.chromeTraceJson(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "FAILED to write %s\n", tracePath.c_str());
      return 1;
    }
  }
  const telemetry::TelemetrySnapshot snap =
      registry.snapshot(trace.horizon().toSeconds());
  {
    std::ofstream out(dir + "/snapshot_000001.json");
    out << snap.toJson().dump(2) << "\n";
  }
  {
    std::ofstream out(dir + "/snapshot_000001.prom");
    out << snap.toPrometheus();
  }
  std::printf("observability export: %s\n", dir.c_str());
  return 0;
}

}  // namespace

int main() {
  metrics::BenchReport report("domain_scaling");
  report.setMeta("clusters", std::to_string(kClusters));
  report.setMeta("requests_per_cluster", std::to_string(kRequestsPerCluster));
  report.setMeta("event_work_us", "50");
  report.setMeta("workers", std::to_string(kWorkers));

  const std::uint32_t domainCounts[] = {1, 2, 4, 8};
  double wallByDomains[9] = {};
  std::vector<RequestOutcome> reference;
  std::printf("domains | wall [s] | speedup | effic | events/s\n");
  std::printf("--------+----------+---------+-------+---------\n");
  for (const std::uint32_t domains : domainCounts) {
    const RunResult run = runConfig(domains);
    if (domains == 1) {
      reference = run.outcomes;
    } else if (run.outcomes != reference) {
      std::fprintf(stderr,
                   "FAIL: %u-domain run diverged from the single-domain "
                   "outcomes\n",
                   domains);
      return 1;
    }
    wallByDomains[domains] = run.wallSeconds;
    const double speedup = wallByDomains[1] / run.wallSeconds;
    const double efficiency = speedup / static_cast<double>(domains);
    std::printf("%7u | %8.3f | %6.2fx | %5.2f | %8.0f\n", domains,
                run.wallSeconds, speedup, efficiency,
                static_cast<double>(run.events) / run.wallSeconds);
    const std::string tag = strprintf("d%u", domains);
    report.addScalar("domains/sec_per_kevent/" + tag,
                     1000.0 * run.wallSeconds /
                         static_cast<double>(run.events));
    report.addScalar("domains/speedup/" + tag, speedup);
    report.addScalar("domains/parallel_efficiency/" + tag, efficiency);
    if (domains > 1 && !run.stallFractions.empty()) {
      Samples fractions;
      for (const double fraction : run.stallFractions) {
        fractions.add(fraction);
      }
      report.addSeries("domains/stall_fraction/" + tag, fractions);
    }
  }

  const double speedup8 = wallByDomains[1] / wallByDomains[8];
  writeBenchReport(report);
  if (speedup8 < 3.0) {
    std::fprintf(stderr,
                 "FAIL: wall-clock speedup at 8 domains is %.2fx "
                 "(floor 3.0x)\n",
                 speedup8);
    return 1;
  }
  std::printf("scaling check: %.2fx wall-clock at 8 domains vs 1 (>= 3x)\n",
              speedup8);

  if (const char* obsDir = std::getenv("EDGESIM_DOMAIN_OBS_OUT")) {
    return exportObservabilityRun(obsDir);
  }
  return 0;
}
