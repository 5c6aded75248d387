// Figure 16: total time (median) for client requests once the instance is
// already running on the cluster.
//
// Paper shape: no notable difference between Docker and Kubernetes; the
// text services answer in about a millisecond; the ResNet classification
// takes significantly longer (inference dominates).
#include <cstdio>
#include <map>

#include "experiment_common.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

namespace {

Samples warmSamples(const std::string& key, ClusterMode mode,
                    std::size_t requests) {
  TestbedOptions options;
  options.clusterMode = mode;
  Testbed bed(options);
  const Endpoint address(Ipv4(203, 0, 113, 10), 80);
  ES_ASSERT(bed.registerCatalogService(key, address).ok());
  bed.warmImageCache(key);

  // Bring the instance up via one throwaway request, then measure.
  bool ready = false;
  bed.requestCatalog(0, key, address, "warmup",
                     [&ready](Result<HttpExchange> r) { ready = r.ok(); });
  bed.sim().runUntil(60_s);
  ES_ASSERT(ready);

  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t client = i % bed.clientCount();
    bed.sim().schedule(SimTime::millis(static_cast<std::int64_t>(400 * i)),
                       [&bed, key, address, client] {
                         bed.requestCatalog(client, key, address, "warm");
                       });
  }
  bed.sim().runUntil(SimTime::seconds(60.0 + 0.4 * static_cast<double>(requests) + 60.0));
  requireLedger(bed, "fig16 warm requests");
  const auto* warm = bed.recorder().series("warm");
  ES_ASSERT(warm != nullptr && warm->count() == requests);
  return *warm;
}

}  // namespace

int main() {
  struct Row {
    double docker = 0;
    double k8s = 0;
  };
  std::map<std::string, Row> rows;

  struct Job {
    std::string key;
    ClusterMode mode;
  };
  std::vector<Job> jobs;
  for (const auto& key : tableOneKeys()) {
    jobs.push_back({key, ClusterMode::kDockerOnly});
    jobs.push_back({key, ClusterMode::kK8sOnly});
  }
  std::vector<Samples> samples(jobs.size());
  parallelFor(jobs.size(), 0, [&](std::size_t i) {
    samples[i] = warmSamples(jobs[i].key, jobs[i].mode, 100);
  });
  metrics::BenchReport report("fig16_warm_requests");
  report.setMeta("requests", "100");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bool docker = jobs[i].mode == ClusterMode::kDockerOnly;
    if (docker) {
      rows[jobs[i].key].docker = samples[i].median();
    } else {
      rows[jobs[i].key].k8s = samples[i].median();
    }
    report.addSeries(
        jobs[i].key + "/" + (docker ? "docker-egs" : "k8s-egs") + "/warm",
        samples[i]);
  }

  std::printf("Figure 16: total time (median) for requests to already-"
              "running instances (100 requests each)\n\n");
  Table table({"Service", "Docker [ms]", "K8s [ms]"});
  for (const auto& key : tableOneKeys()) {
    table.addRow({key, strprintf("%.2f", rows.at(key).docker * 1e3),
                  strprintf("%.2f", rows.at(key).k8s * 1e3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
