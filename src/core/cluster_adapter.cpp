#include "core/cluster_adapter.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace edgesim::core {

using container::ContainerId;
using container::ContainerInfo;
using container::ContainerState;

// ===========================================================================
// DockerAdapter
// ===========================================================================

DockerAdapter::DockerAdapter(Simulation& sim, std::string name,
                             int distanceRank, docker::DockerEngine& engine,
                             int capacity, SimTime mgmtRtt)
    : ClusterAdapter(std::move(name), distanceRank),
      sim_(sim),
      engine_(engine),
      capacity_(capacity),
      mgmtRtt_(mgmtRtt) {
  // Ready instances are this adapter's running containers with an open
  // port: report each of them whose port opens.
  engine_.runtime().setPortListener([this](ContainerId id) {
    for (const auto& [uniqueName, ids] : services_) {
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) {
        readinessChanged(uniqueName);
      }
    }
  });
}

DockerAdapter::~DockerAdapter() { engine_.runtime().setPortListener(nullptr); }

std::vector<const ContainerInfo*> DockerAdapter::containersOf(
    const ServiceModel& service) const {
  // Only the containers this adapter created: the EGS runtime is shared
  // with the Kubernetes kubelet (same containerd), so a label query would
  // also return pod containers that belong to the K8s cluster.
  std::vector<const ContainerInfo*> out;
  const auto it = services_.find(service.uniqueName);
  if (it == services_.end()) return out;
  for (const container::ContainerId id : it->second) {
    if (const ContainerInfo* info = engine_.inspect(id)) out.push_back(info);
  }
  return out;
}

ClusterView DockerAdapter::view(const ServiceModel& service) const {
  ClusterView view;
  view.name = name();
  view.distanceRank = distanceRank();
  view.readyInstances = readyInstances(service);
  view.imageCached = true;
  for (const auto& spec : service.containers) {
    if (!engine_.imageCached(spec.image)) {
      view.imageCached = false;
      break;
    }
  }
  view.serviceCreated = services_.count(service.uniqueName) != 0 &&
                        !services_.at(service.uniqueName).empty();
  const int used = static_cast<int>(engine_.listContainers().size());
  view.freeCapacity = std::max(0, capacity_ - used);
  return view;
}

std::vector<Endpoint> DockerAdapter::readyInstances(
    const ServiceModel& service) const {
  std::vector<Endpoint> instances;
  for (const auto* info : containersOf(service)) {
    if (info->state != ContainerState::kRunning || info->hostPort == 0) {
      continue;
    }
    if (!info->spec.app.exposesPort) continue;
    instances.emplace_back(engine_.runtime().host().ip(), info->hostPort);
  }
  return instances;
}

void DockerAdapter::pullImages(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("pull")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  auto remaining = std::make_shared<std::size_t>(service.containers.size());
  auto firstError = std::make_shared<Status>();
  for (const auto& spec : service.containers) {
    engine_.pull(spec.image, [remaining, firstError, cb](Status status) {
      if (!status.ok() && firstError->ok()) *firstError = status;
      if (--*remaining == 0) cb(*firstError);
    });
  }
}

void DockerAdapter::createService(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("create")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  auto& ids = services_[service.uniqueName];
  if (!ids.empty()) {
    sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
    return;
  }
  // Containers are created one after another, as the controller's Docker
  // client library does -- this is why a multi-container service costs
  // visibly more on Docker (fig. 12's Nginx+Py).
  auto collected = std::make_shared<std::vector<ContainerId>>();
  auto createNext = std::make_shared<std::function<void(std::size_t)>>();
  // The recursive step captures itself weakly -- a shared self-capture would
  // make the std::function own its own closure and leak the whole chain.
  // Each in-flight engine callback holds the strong reference instead.
  std::weak_ptr<std::function<void(std::size_t)>> weakNext = createNext;
  *createNext = [this, service, collected, weakNext, cb](std::size_t index) {
    if (index >= service.containers.size()) {
      services_[service.uniqueName] = *collected;
      cb(Status());
      return;
    }
    auto self = weakNext.lock();  // alive: we are being invoked through it
    engine_.createContainer(
        service.containers[index],
        [collected, self, cb, index](Result<ContainerId> result) {
          if (!result.ok()) {
            cb(result.error());
            return;
          }
          collected->push_back(result.value());
          (*self)(index + 1);
        });
  };
  (*createNext)(0);
}

void DockerAdapter::scaleUp(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("scaleup")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  const auto it = services_.find(service.uniqueName);
  if (it == services_.end() || it->second.empty()) {
    sim_.schedule(SimTime::zero(), [cb] {
      cb(makeError(Errc::kFailedPrecondition, "service not created"));
    });
    return;
  }
  // Sequential starts, mirroring per-container API calls.
  const auto ids = it->second;
  auto startNext = std::make_shared<std::function<void(std::size_t)>>();
  // Weak self-capture for the same reason as in createService above.
  std::weak_ptr<std::function<void(std::size_t)>> weakNext = startNext;
  *startNext = [this, ids, weakNext, cb](std::size_t index) {
    if (index >= ids.size()) {
      cb(Status());
      return;
    }
    auto self = weakNext.lock();
    const ContainerId id = ids[index];
    const ContainerInfo* info = engine_.inspect(id);
    if (info != nullptr && (info->state == ContainerState::kRunning ||
                            info->state == ContainerState::kStarting)) {
      (*self)(index + 1);  // already up (idempotent scale-up)
      return;
    }
    engine_.startContainer(id, [self, cb, index](Status status) {
      if (!status.ok()) {
        cb(status);
        return;
      }
      (*self)(index + 1);
    });
  };
  (*startNext)(0);
}

void DockerAdapter::scaleDown(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  const auto it = services_.find(service.uniqueName);
  if (it == services_.end() || it->second.empty()) {
    sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
    return;
  }
  auto remaining = std::make_shared<std::size_t>(it->second.size());
  for (const ContainerId id : it->second) {
    const ContainerInfo* info = engine_.inspect(id);
    if (info == nullptr || info->state != ContainerState::kRunning) {
      if (--*remaining == 0) cb(Status());
      continue;
    }
    engine_.stopContainer(id, [remaining, cb](Status) {
      if (--*remaining == 0) cb(Status());
    });
  }
}

void DockerAdapter::removeService(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  const auto it = services_.find(service.uniqueName);
  if (it == services_.end()) {
    sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
    return;
  }
  const auto ids = it->second;
  services_.erase(it);
  auto remaining = std::make_shared<std::size_t>(ids.size());
  for (const ContainerId id : ids) {
    engine_.stopContainer(id, [this, id, remaining, cb](Status) {
      engine_.removeContainer(id, [remaining, cb](Status) {
        if (--*remaining == 0) cb(Status());
      });
    });
  }
}

void DockerAdapter::deleteImages(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto remaining = std::make_shared<std::size_t>(service.containers.size());
  auto firstError = std::make_shared<Status>();
  for (const auto& spec : service.containers) {
    engine_.removeImage(spec.image,
                        [remaining, firstError, cb](Status status) {
                          if (!status.ok() && firstError->ok()) {
                            *firstError = status;
                          }
                          if (--*remaining == 0) cb(*firstError);
                        });
  }
}

void DockerAdapter::probeInstance(Endpoint instance, ProbeCallback cb) {
  ES_ASSERT(cb != nullptr);
  // Management-plane probe: one RTT to the node, then an open-port check.
  sim_.schedule(mgmtRtt_, [this, instance, cb] {
    cb(engine_.runtime().host().ip() == instance.ip &&
       engine_.runtime().host().listening(instance.port));
  });
}

// ===========================================================================
// K8sAdapter
// ===========================================================================

K8sAdapter::K8sAdapter(Simulation& sim, std::string name, int distanceRank,
                       k8s::K8sCluster& cluster,
                       std::vector<k8s::NodeHandle> nodes, SimTime mgmtRtt)
    : ClusterAdapter(std::move(name), distanceRank),
      sim_(sim),
      cluster_(cluster),
      nodes_(std::move(nodes)),
      mgmtRtt_(mgmtRtt) {
  // Ready instances are the addresses of the service's Endpoints object
  // (same name as the service): report each commit to it.
  cluster_.api().endpoints().setCommitHook(
      [this](const std::string& service) { readinessChanged(service); });
}

K8sAdapter::~K8sAdapter() {
  cluster_.api().endpoints().setCommitHook(nullptr);
}

k8s::Deployment K8sAdapter::toDeployment(const ServiceModel& service,
                                         int replicas) {
  k8s::Deployment deployment;
  deployment.meta.name = service.uniqueName;
  deployment.meta.labels = {{"app", service.uniqueName},
                            {kEdgeServiceLabel, service.address.toString()}};
  deployment.spec.replicas = replicas;
  deployment.spec.selector = deployment.meta.labels;
  deployment.spec.podTemplate.labels = deployment.meta.labels;
  deployment.spec.podTemplate.spec.containers = service.containers;
  deployment.spec.podTemplate.spec.schedulerName = service.schedulerName;
  return deployment;
}

k8s::Service K8sAdapter::toService(const ServiceModel& service) {
  k8s::Service svc;
  svc.meta.name = service.uniqueName;
  svc.meta.labels = {{"app", service.uniqueName},
                     {kEdgeServiceLabel, service.address.toString()}};
  svc.spec.selector = svc.meta.labels;
  svc.spec.ports.push_back(
      k8s::ServicePort{service.address.port, service.targetPort, "TCP"});
  return svc;
}

ClusterView K8sAdapter::view(const ServiceModel& service) const {
  ClusterView view;
  view.name = name();
  view.distanceRank = distanceRank();
  view.readyInstances = readyInstances(service);
  view.imageCached = true;
  for (const auto& spec : service.containers) {
    bool cachedSomewhere = false;
    for (const auto& node : nodes_) {
      if (node.runtime->store().hasImage(spec.image)) {
        cachedSomewhere = true;
        break;
      }
    }
    if (!cachedSomewhere) {
      view.imageCached = false;
      break;
    }
  }
  view.serviceCreated =
      cluster_.deployment(service.uniqueName) != nullptr;
  int capacity = 0;
  for (const auto& node : nodes_) capacity += node.podCapacity;
  view.freeCapacity =
      std::max(0, capacity - static_cast<int>(
                                 cluster_.api().pods().size()));
  return view;
}

std::vector<Endpoint> K8sAdapter::readyInstances(
    const ServiceModel& service) const {
  return cluster_.readyEndpoints(service.uniqueName);
}

void K8sAdapter::pullImages(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("pull")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  // Pre-pull on every node so the kubelet's pull is a cache hit wherever
  // the pod lands (single-node clusters: exactly one pull).
  auto remaining =
      std::make_shared<std::size_t>(service.containers.size() * nodes_.size());
  auto firstError = std::make_shared<Status>();
  for (const auto& node : nodes_) {
    for (const auto& spec : service.containers) {
      if (node.registry == nullptr) {
        if (--*remaining == 0) cb(*firstError);
        continue;
      }
      node.puller->pull(*node.registry, spec.image,
                        [remaining, firstError, cb](Status status) {
                          if (!status.ok() && firstError->ok()) {
                            *firstError = status;
                          }
                          if (--*remaining == 0) cb(*firstError);
                        });
    }
  }
}

void K8sAdapter::createService(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("create")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  // Deployment (replicas=0, "scale to zero") + Service, per the annotator.
  auto remaining = std::make_shared<int>(2);
  auto firstError = std::make_shared<Status>();
  auto done = [remaining, firstError, cb](Status status) {
    if (!status.ok() && firstError->ok()) *firstError = status;
    if (--*remaining == 0) cb(*firstError);
  };
  cluster_.applyDeployment(toDeployment(service, 0), done);
  cluster_.applyService(toService(service), done);
}

void K8sAdapter::scaleUp(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkRpcFault("scaleup")) {
    sim_.schedule(mgmtRtt_ + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  const k8s::Deployment* deployment =
      cluster_.deployment(service.uniqueName);
  if (deployment == nullptr) {
    sim_.schedule(SimTime::zero(), [cb] {
      cb(makeError(Errc::kFailedPrecondition, "deployment not created"));
    });
    return;
  }
  const int target = std::max(1, deployment->spec.replicas);
  cluster_.scaleDeployment(service.uniqueName, target, std::move(cb));
}

void K8sAdapter::scaleDown(const ServiceModel& service, Callback cb) {
  cluster_.scaleDeployment(service.uniqueName, 0, std::move(cb));
}

void K8sAdapter::removeService(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto remaining = std::make_shared<int>(2);
  auto done = [remaining, cb](Status) {
    if (--*remaining == 0) cb(Status());
  };
  cluster_.deleteDeployment(service.uniqueName, done);
  cluster_.deleteService(service.uniqueName, done);
}

void K8sAdapter::deleteImages(const ServiceModel& service, Callback cb) {
  ES_ASSERT(cb != nullptr);
  sim_.schedule(SimTime::zero(), [this, service, cb] {
    for (const auto& node : nodes_) {
      for (const auto& spec : service.containers) {
        node.runtime->store().removeImage(spec.image);
      }
    }
    cb(Status());
  });
}

void K8sAdapter::probeInstance(Endpoint instance, ProbeCallback cb) {
  ES_ASSERT(cb != nullptr);
  sim_.schedule(mgmtRtt_, [this, instance, cb] {
    for (const auto& node : nodes_) {
      if (node.host->ip() == instance.ip) {
        cb(node.host->listening(instance.port));
        return;
      }
    }
    cb(false);
  });
}

// ===========================================================================
// CloudAdapter
// ===========================================================================

CloudAdapter::CloudAdapter(Simulation& sim, std::string name,
                           int distanceRank, Host& cloudHost,
                           const AppProfileRegistry& profiles, SimTime mgmtRtt)
    : ClusterAdapter(std::move(name), distanceRank),
      sim_(sim),
      host_(cloudHost),
      profiles_(profiles),
      mgmtRtt_(mgmtRtt),
      rng_(sim.rng().fork(0xC10CD)) {}

Endpoint CloudAdapter::hostService(const ServiceModel& service) {
  const auto it = instances_.find(service.uniqueName);
  if (it != instances_.end()) return it->second;

  const Endpoint endpoint(host_.ip(), nextPort_++);
  // The primary container's profile defines the cloud instance's behaviour
  // (same binary, beefier machine -- modelled as identical compute).
  ES_ASSERT(!service.containers.empty());
  const container::AppProfile app = service.containers.front().app;
  auto requestRng = std::make_shared<Rng>(rng_.fork(endpoint.port));
  host_.listen(endpoint.port, [this, app, requestRng](const HttpRequest&,
                                                      HttpRespond respond) {
    SimTime compute = app.requestCompute;
    if (app.computeJitterSigma > 0.0) {
      compute =
          compute.scaled(requestRng->lognormal(0.0, app.computeJitterSigma));
    }
    sim_.schedule(compute, [app, respond = std::move(respond)] {
      HttpResponse response;
      response.status = 200;
      response.payload = app.responseBytes;
      respond(response);
    });
  });
  instances_[service.uniqueName] = endpoint;
  readinessChanged(service.uniqueName);
  return endpoint;
}

ClusterView CloudAdapter::view(const ServiceModel& service) const {
  ClusterView view;
  view.name = name();
  view.distanceRank = distanceRank();
  view.isCloud = true;
  view.readyInstances = readyInstances(service);
  view.imageCached = true;
  view.serviceCreated = true;
  view.freeCapacity = 1000000;  // effectively unlimited
  return view;
}

std::vector<Endpoint> CloudAdapter::readyInstances(
    const ServiceModel& service) const {
  const auto it = instances_.find(service.uniqueName);
  if (it == instances_.end()) return {};
  return {it->second};
}

void CloudAdapter::finish(Callback cb) {
  sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
}

void CloudAdapter::pullImages(const ServiceModel&, Callback cb) { finish(cb); }
void CloudAdapter::createService(const ServiceModel&, Callback cb) {
  finish(cb);
}
void CloudAdapter::scaleUp(const ServiceModel&, Callback cb) { finish(cb); }
void CloudAdapter::scaleDown(const ServiceModel&, Callback cb) { finish(cb); }
void CloudAdapter::removeService(const ServiceModel&, Callback cb) {
  finish(cb);
}
void CloudAdapter::deleteImages(const ServiceModel&, Callback cb) {
  finish(cb);
}

void CloudAdapter::probeInstance(Endpoint instance, ProbeCallback cb) {
  sim_.schedule(mgmtRtt_, [this, instance, cb] {
    cb(host_.ip() == instance.ip && host_.listening(instance.port));
  });
}

}  // namespace edgesim::core
