// Figure 12: median total time to CREATE + SCALE UP the four services on
// both cluster types (images cached).
//
// Paper shape: creating the containers adds ~100 ms to the first response
// compared to fig. 11 -- except ResNet, whose create cost hides under the
// model-load time.
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
    double dockerScaleOnly = 0;  // fig. 11 counterpart for the delta column
  };
  std::map<std::string, Row> rows;

  struct Job {
    std::string key;
    ClusterMode mode;
    bool preCreate;
  };
  std::vector<Job> jobs;
  for (const auto& key : tableOneKeys()) {
    jobs.push_back({key, ClusterMode::kDockerOnly, false});
    jobs.push_back({key, ClusterMode::kK8sOnly, false});
    jobs.push_back({key, ClusterMode::kDockerOnly, true});  // delta baseline
  }
  std::vector<DeploymentExperimentResult> results(jobs.size());
  parallelFor(jobs.size(), 0, [&](std::size_t i) {
    DeploymentExperimentConfig config;
    config.catalogKey = jobs[i].key;
    config.mode = jobs[i].mode;
    config.preCreate = jobs[i].preCreate;
    results[i] = runDeploymentExperiment(config);
  });

  metrics::BenchReport report("fig12_create_scaleup");
  report.setMeta("seed", "1");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ES_ASSERT(results[i].failures == 0);
    const double median = results[i].totals.median();
    Row& row = rows[jobs[i].key];
    std::string prefix = jobs[i].key + "/";
    if (jobs[i].preCreate) {
      row.dockerScaleOnly = median;
      prefix += "docker-egs-scale-only";
    } else if (jobs[i].mode == ClusterMode::kDockerOnly) {
      row.docker = median;
      prefix += "docker-egs";
    } else {
      row.k8s = median;
      prefix += "k8s-egs";
    }
    addDeploymentSeries(report, prefix, results[i]);
  }

  std::printf("Figure 12: total time (median) to create + scale up 42 "
              "instances (images cached)\n\n");
  Table table({"Service", "Docker [s]", "K8s [s]", "Docker delta vs fig11 [ms]"});
  for (const auto& key : tableOneKeys()) {
    const Row& row = rows.at(key);
    table.addRow({key, strprintf("%.3f", row.docker),
                  strprintf("%.3f", row.k8s),
                  strprintf("%+.0f", (row.docker - row.dockerScaleOnly) * 1e3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("CSV:\n%s", table.csv().c_str());
  writeBenchReport(report);
  return 0;
}
