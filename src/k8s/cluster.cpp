#include "k8s/cluster.hpp"

namespace edgesim::k8s {

K8sCluster::K8sCluster(Simulation& sim, ControlPlaneParams params,
                       std::vector<NodeHandle> nodes)
    : sim_(sim), params_(params) {
  api_ = std::make_unique<ApiServer>(sim_, params_);
  deploymentController_ =
      std::make_unique<DeploymentController>(sim_, *api_, params_);
  replicaSetController_ =
      std::make_unique<ReplicaSetController>(sim_, *api_, params_);
  endpointsController_ =
      std::make_unique<EndpointsController>(sim_, *api_, params_);
  scheduler_ = std::make_unique<PodScheduler>(sim_, *api_, params_, nodes);
  for (const auto& node : nodes) {
    kubelets_.push_back(std::make_unique<Kubelet>(sim_, *api_, params_, node));
  }
}

void K8sCluster::applyDeployment(Deployment deployment,
                                 std::function<void(Status)> cb) {
  const std::string name = deployment.meta.name;
  if (api_->deployments().get(name) != nullptr) {
    const DeploymentSpec spec = deployment.spec;
    api_->deployments().update(
        name, [spec](Deployment& d) { d.spec = spec; }, std::move(cb));
    return;
  }
  api_->deployments().create(std::move(deployment), std::move(cb));
}

void K8sCluster::applyService(Service service,
                              std::function<void(Status)> cb) {
  const std::string name = service.meta.name;
  if (api_->services().get(name) != nullptr) {
    const ServiceSpec spec = service.spec;
    api_->services().update(
        name, [spec](Service& s) { s.spec = spec; }, std::move(cb));
    return;
  }
  api_->services().create(std::move(service), std::move(cb));
}

void K8sCluster::scaleDeployment(const std::string& name, int replicas,
                                 std::function<void(Status)> cb) {
  api_->deployments().update(
      name, [replicas](Deployment& d) { d.spec.replicas = replicas; },
      std::move(cb));
}

void K8sCluster::deleteDeployment(const std::string& name,
                                  std::function<void(Status)> cb) {
  api_->deployments().remove(name, std::move(cb));
}

void K8sCluster::deleteService(const std::string& name,
                               std::function<void(Status)> cb) {
  api_->services().remove(name, std::move(cb));
}

std::vector<const Pod*> K8sCluster::podsBySelector(
    const Labels& selector) const {
  return api_->pods().listBySelector(selector);
}

std::vector<Endpoint> K8sCluster::readyEndpoints(
    const std::string& serviceName) const {
  const Endpoints* endpoints = api_->endpoints().get(serviceName);
  if (endpoints == nullptr) return {};
  return endpoints->addresses;
}

const Deployment* K8sCluster::deployment(const std::string& name) const {
  return api_->deployments().get(name);
}

std::vector<Kubelet*> K8sCluster::kubelets() {
  std::vector<Kubelet*> out;
  out.reserve(kubelets_.size());
  for (const auto& kubelet : kubelets_) out.push_back(kubelet.get());
  return out;
}

}  // namespace edgesim::k8s
