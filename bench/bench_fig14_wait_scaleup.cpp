// Figure 14: median wait time until the services are READY after being
// scaled up -- the controller's port-polling span (§VI), included in
// fig. 11's totals.
//
// Paper shape: tiny for Asm/Nginx; for ResNet the wait alone accounts for
// more than a fourth of the total time.
#include <cstdio>
#include <map>

#include "experiment_common.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

int main() {
  struct Row {
    double dockerWait = 0;
    double k8sWait = 0;
    double dockerTotal = 0;
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
  std::vector<DeploymentExperimentResult> results(jobs.size());
  parallelFor(jobs.size(), 0, [&](std::size_t i) {
    DeploymentExperimentConfig config;
    config.catalogKey = jobs[i].key;
    config.mode = jobs[i].mode;
    config.preCreate = true;
    results[i] = runDeploymentExperiment(config);
  });

  metrics::BenchReport report("fig14_wait_scaleup");
  report.setMeta("seed", "1");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Row& row = rows[jobs[i].key];
    const double wait =
        results[i].waits.empty() ? 0.0 : results[i].waits.median();
    const bool docker = jobs[i].mode == ClusterMode::kDockerOnly;
    if (docker) {
      row.dockerWait = wait;
      row.dockerTotal = results[i].totals.median();
    } else {
      row.k8sWait = wait;
    }
    addDeploymentSeries(
        report, jobs[i].key + "/" + (docker ? "docker-egs" : "k8s-egs"),
        results[i]);
  }

  std::printf("Figure 14: wait time (median) until ready after scale-up\n");
  std::printf("(controller port polling; included in fig. 11 totals)\n\n");
  Table table({"Service", "Docker wait [s]", "K8s wait [s]",
               "wait share of Docker total"});
  for (const auto& key : tableOneKeys()) {
    const Row& row = rows.at(key);
    table.addRow({key, strprintf("%.3f", row.dockerWait),
                  strprintf("%.3f", row.k8sWait),
                  strprintf("%.0f%%", 100.0 * row.dockerWait / row.dockerTotal)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
