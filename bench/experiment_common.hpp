// Shared harness for the paper's deployment-time experiments.
//
// Figures 11/12/14/15 all follow the same protocol: 42 edge services of one
// Table I type are deployed on demand on one cluster type, driven by the
// first requests of the bigFlows-derived trace; the figures report the
// median total client time (figs. 11/12) and the controller's wait-until-
// ready time (figs. 14/15), with the Create phase included or not.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "bench_output.hpp"
#include "core/testbed.hpp"
#include "ledger_check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/bigflows.hpp"

namespace edgesim::bench {

using namespace edgesim::core;
using namespace edgesim::timeliterals;

struct DeploymentExperimentResult {
  Samples totals;   // per-service first-request total (timecurl time_total)
  Samples waits;    // controller port-poll wait after scale-up
  Samples creates;  // create-phase durations (when the phase ran)
  Samples pulls;    // pull-phase durations (when the phase ran)
  std::size_t failures = 0;
  /// Trace-derived per-request splits ("trace/uplink", "trace/resolve",
  /// "trace/pull", ... -- see trace::TraceRecorder::phaseSamples).
  std::map<std::string, Samples> traceSplits;
};

struct DeploymentExperimentConfig {
  std::string catalogKey = "nginx";
  ClusterMode mode = ClusterMode::kDockerOnly;
  /// Pre-create the service (containers / Deployment+Service objects) so
  /// only the Scale-Up phase runs (fig. 11); false => Create + Scale-Up
  /// (fig. 12).
  bool preCreate = true;
  /// Seed the edge image cache (both figures assume cached images).
  bool warmCache = true;
  std::uint64_t seed = 1;
  std::size_t services = 42;  // fig. 10: 42 deployments
};

inline DeploymentExperimentResult runDeploymentExperiment(
    const DeploymentExperimentConfig& config) {
  DeploymentExperimentResult result;

  TestbedOptions options;
  options.seed = config.seed;
  options.clusterMode = config.mode;
  Testbed bed(options);

  if (config.warmCache) bed.warmImageCache(config.catalogKey);

  // Service first-request times from the bigFlows-like trace (fig. 10).
  workload::BigFlowsParams traceParams;
  traceParams.seed = config.seed;
  traceParams.targetServices = config.services;
  traceParams.targetRequests =
      std::max<std::size_t>(config.services * 20, 1708);
  const auto loads = workload::generateFilteredServices(traceParams);

  std::vector<const ServiceModel*> models;
  for (std::size_t i = 0; i < config.services; ++i) {
    const Endpoint address(
        Ipv4(203, 0, 113, static_cast<std::uint8_t>(i + 1)), 80);
    const auto registered =
        bed.registerCatalogService(config.catalogKey, address);
    ES_ASSERT(registered.ok());
    models.push_back(registered.value());
  }

  ClusterAdapter* adapter = config.mode == ClusterMode::kDockerOnly
                                ? static_cast<ClusterAdapter*>(bed.dockerAdapter())
                                : static_cast<ClusterAdapter*>(bed.k8sAdapter());
  ES_ASSERT(adapter != nullptr);

  if (config.preCreate) {
    // Create phase executed ahead of time: the measured requests only pay
    // Scale-Up (fig. 11's protocol).
    std::size_t created = 0;
    for (const auto* model : models) {
      adapter->createService(*model, [&created](Status status) {
        ES_ASSERT(status.ok());
        ++created;
      });
    }
    while (created < models.size() && bed.sim().pendingEvents() > 0) {
      bed.sim().step();
    }
    ES_ASSERT(created == models.size());
  }

  // First request per service at its trace time.
  for (std::size_t i = 0; i < config.services; ++i) {
    const auto& load = loads[i % loads.size()];
    const std::size_t clientIndex =
        (load.requests.front().second.value & 0xff) % bed.clientCount();
    // The pre-create step advanced the clock; don't schedule into the past.
    const SimTime at = std::max(load.firstRequestAt(), bed.sim().now());
    bed.sim().scheduleAt(at, [&bed, &config, i, clientIndex,
                              address = models[i]->address] {
      bed.requestCatalog(clientIndex, config.catalogKey, address, "total");
    });
  }

  bed.sim().runUntil(traceParams.duration + 120_s);
  requireLedger(bed, "deployment experiment");

  if (const auto* totals = bed.recorder().series("total")) {
    for (const double v : totals->values()) result.totals.add(v);
  }
  result.failures = bed.recorder().failureCount();

  const std::string clusterName =
      config.mode == ClusterMode::kDockerOnly ? "docker-egs" : "k8s-egs";
  if (const auto* waits =
          bed.recorder().series(config.catalogKey + "/" + clusterName + "/wait")) {
    for (const double v : waits->values()) result.waits.add(v);
  }
  if (const auto* creates = bed.recorder().series(config.catalogKey + "/" +
                                                  clusterName + "/create")) {
    for (const double v : creates->values()) result.creates.add(v);
  }
  if (const auto* pulls = bed.recorder().series(config.catalogKey + "/" +
                                                clusterName + "/pull")) {
    for (const double v : pulls->values()) result.pulls.add(v);
  }
  return result;
}

inline const char* clusterLabel(ClusterMode mode) {
  return mode == ClusterMode::kDockerOnly ? "Docker" : "K8s";
}

/// The four Table I services in paper order.
inline const std::vector<std::string>& tableOneKeys() {
  static const std::vector<std::string> keys{"asm", "nginx", "resnet",
                                             "nginx-py"};
  return keys;
}

// ---- machine-readable bench output (BENCH_<name>.json) ---------------------

/// All the measured series of one deployment experiment under `prefix`
/// (totals, phase samples from the Recorder, trace-derived splits and the
/// failure count).
inline void addDeploymentSeries(metrics::BenchReport& report,
                                const std::string& prefix,
                                const DeploymentExperimentResult& result) {
  report.addSeries(prefix + "/total", result.totals);
  if (!result.waits.empty()) report.addSeries(prefix + "/wait", result.waits);
  if (!result.creates.empty()) {
    report.addSeries(prefix + "/create", result.creates);
  }
  if (!result.pulls.empty()) report.addSeries(prefix + "/pull", result.pulls);
  report.addSeriesMap(result.traceSplits, prefix);
  report.addScalar(prefix + "/failures",
                   static_cast<double>(result.failures));
}

}  // namespace edgesim::bench
