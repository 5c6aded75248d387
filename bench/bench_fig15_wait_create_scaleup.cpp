// Figure 15: median wait time until the services are ready after being
// CREATED + scaled up (included in fig. 12's totals).
#include <cstdio>
#include <map>

#include "experiment_common.hpp"
#include "util/parallel_for.hpp"

using namespace edgesim;
using namespace edgesim::bench;

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
  std::vector<DeploymentExperimentResult> results(jobs.size());
  parallelFor(jobs.size(), 0, [&](std::size_t i) {
    DeploymentExperimentConfig config;
    config.catalogKey = jobs[i].key;
    config.mode = jobs[i].mode;
    config.preCreate = false;  // create + scale up
    results[i] = runDeploymentExperiment(config);
  });

  metrics::BenchReport report("fig15_wait_create_scaleup");
  report.setMeta("seed", "1");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const double wait =
        results[i].waits.empty() ? 0.0 : results[i].waits.median();
    const bool docker = jobs[i].mode == ClusterMode::kDockerOnly;
    if (docker) {
      rows[jobs[i].key].docker = wait;
    } else {
      rows[jobs[i].key].k8s = wait;
    }
    addDeploymentSeries(
        report, jobs[i].key + "/" + (docker ? "docker-egs" : "k8s-egs"),
        results[i]);
  }

  std::printf("Figure 15: wait time (median) until ready after create + "
              "scale-up\n\n");
  Table table({"Service", "Docker wait [s]", "K8s wait [s]"});
  for (const auto& key : tableOneKeys()) {
    table.addRow({key, strprintf("%.3f", rows.at(key).docker),
                  strprintf("%.3f", rows.at(key).k8s)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
