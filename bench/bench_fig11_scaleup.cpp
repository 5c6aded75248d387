// Figure 11: median total time to SCALE UP the four Table I services on the
// two cluster types (images cached, services already created).
//
// Paper shape: Docker < 1 s for the small services, Kubernetes ~3 s ("the
// numbers highlight the overhead of an orchestrator like Kubernetes");
// Asm ~= Nginx (start cost is namespace-dominated); ResNet slowest.
#include <cstdio>
#include <map>

#include "experiment_common.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

int main() {
  struct Row {
    std::string key;
    double docker = 0;
    double k8s = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& key : tableOneKeys()) rows[key].key = key;

  // 8 independent simulations (4 services x 2 clusters), run in parallel.
  struct Job {
    std::string key;
    ClusterMode mode;
  };
  std::vector<Job> jobs;
  for (const auto& key : tableOneKeys()) {
    jobs.push_back({key, ClusterMode::kDockerOnly});
    jobs.push_back({key, ClusterMode::kK8sOnly});
  }
  std::vector<DeploymentExperimentResult> results(jobs.size());
  parallelFor(jobs.size(), 0, [&](std::size_t i) {
    DeploymentExperimentConfig config;
    config.catalogKey = jobs[i].key;
    config.mode = jobs[i].mode;
    config.preCreate = true;
    config.warmCache = true;
    results[i] = runDeploymentExperiment(config);
  });

  metrics::BenchReport report("fig11_scaleup");
  report.setMeta("seed", "1");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ES_ASSERT(results[i].failures == 0);
    ES_ASSERT(results[i].totals.count() == 42);
    const double median = results[i].totals.median();
    const bool docker = jobs[i].mode == ClusterMode::kDockerOnly;
    if (docker) {
      rows[jobs[i].key].docker = median;
    } else {
      rows[jobs[i].key].k8s = median;
    }
    addDeploymentSeries(
        report, jobs[i].key + "/" + (docker ? "docker-egs" : "k8s-egs"),
        results[i]);
  }

  std::printf("Figure 11: total time (median) to scale up 42 instances\n");
  std::printf("(images cached; create phase executed beforehand)\n\n");
  Table table({"Service", "Docker [s]", "K8s [s]", "K8s/Docker"});
  for (const auto& key : tableOneKeys()) {
    const Row& row = rows[key];
    table.addRow({key, strprintf("%.3f", row.docker),
                  strprintf("%.3f", row.k8s),
                  strprintf("%.1fx", row.k8s / row.docker)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
