// K8sCluster: wires an API server, controller manager, scheduler, and one
// kubelet per node into a cluster, and offers the client-facing operations
// the paper's SDN controller performs through the Kubernetes API:
// apply Deployment/Service, scale, delete, list, read endpoints.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "k8s/api_server.hpp"
#include "k8s/controllers.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/scheduler.hpp"

namespace edgesim::k8s {

class K8sCluster {
 public:
  K8sCluster(Simulation& sim, ControlPlaneParams params,
             std::vector<NodeHandle> nodes);

  ApiServer& api() { return *api_; }
  PodScheduler& scheduler() { return *scheduler_; }
  const ControlPlaneParams& params() const { return params_; }

  // -- client operations (as the SDN controller's K8s adapter uses them) --
  void applyDeployment(Deployment deployment,
                       std::function<void(Status)> cb = nullptr);
  void applyService(Service service, std::function<void(Status)> cb = nullptr);
  void scaleDeployment(const std::string& name, int replicas,
                       std::function<void(Status)> cb = nullptr);
  void deleteDeployment(const std::string& name,
                        std::function<void(Status)> cb = nullptr);
  void deleteService(const std::string& name,
                     std::function<void(Status)> cb = nullptr);

  std::vector<const Pod*> podsBySelector(const Labels& selector) const;
  /// Ready endpoints for the Service object `serviceName` (empty when the
  /// Endpoints object does not exist yet).
  std::vector<Endpoint> readyEndpoints(const std::string& serviceName) const;
  const Deployment* deployment(const std::string& name) const;

  std::vector<Kubelet*> kubelets();

 private:
  Simulation& sim_;
  ControlPlaneParams params_;
  std::unique_ptr<ApiServer> api_;
  std::unique_ptr<DeploymentController> deploymentController_;
  std::unique_ptr<ReplicaSetController> replicaSetController_;
  std::unique_ptr<EndpointsController> endpointsController_;
  std::unique_ptr<PodScheduler> scheduler_;
  std::vector<std::unique_ptr<Kubelet>> kubelets_;
};

}  // namespace edgesim::k8s
