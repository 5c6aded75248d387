#include "k8s/controllers.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace edgesim::k8s {

namespace {

bool templatesEqual(const PodTemplate& a, const PodTemplate& b) {
  if (a.labels != b.labels) return false;
  if (a.spec.schedulerName != b.spec.schedulerName) return false;
  if (a.spec.containers.size() != b.spec.containers.size()) return false;
  for (std::size_t i = 0; i < a.spec.containers.size(); ++i) {
    if (a.spec.containers[i].image != b.spec.containers[i].image) return false;
    if (a.spec.containers[i].name != b.spec.containers[i].name) return false;
  }
  return true;
}

bool podAlive(const Pod& pod) {
  return pod.status.phase == PodPhase::kPending ||
         pod.status.phase == PodPhase::kRunning;
}

}  // namespace

// ------------------------------------------------------------------------
// DeploymentController
// ------------------------------------------------------------------------

DeploymentController::DeploymentController(Simulation& sim, ApiServer& api,
                                           const ControlPlaneParams& params)
    : api_(api),
      queue_(sim, api.deployments(), params.controllerSyncLatency,
             [this](const std::string& name, Record& record) {
               reconcile(name, record);
             }) {
  api_.deployments().watch([this](const WatchEvent<Deployment>& event) {
    queue_.enqueue(event.object.meta.name);
  });
  // ReplicaSet status changes roll up into Deployment status.
  api_.replicaSets().watch([this](const WatchEvent<ReplicaSet>& event) {
    if (!event.object.ownerDeployment.empty()) {
      queue_.enqueue(event.object.ownerDeployment);
    }
  });
  resync_.start(sim, params.controllerResyncPeriod, [this] {
    queue_.enqueueAll();
    return true;
  }, params.controllerResyncPeriod);
}

void DeploymentController::reconcile(const std::string& name,
                                     Record& record) {
  if (record.rsName.empty()) record.rsName = rsNameFor(name);
  const std::string& rsName = record.rsName;
  const Deployment* deployment =
      record.deployment.get(api_.deployments(), name);
  const ReplicaSet* rs = record.replicaSet.get(api_.replicaSets(), rsName);

  if (deployment == nullptr) {
    if (rs != nullptr) api_.replicaSets().remove(rsName);
    return;
  }

  if (rs == nullptr) {
    ReplicaSet newRs;
    newRs.meta.name = rsName;
    newRs.meta.labels = deployment->spec.podTemplate.labels;
    newRs.spec.replicas = deployment->spec.replicas;
    newRs.spec.selector = deployment->spec.selector;
    newRs.spec.podTemplate = deployment->spec.podTemplate;
    newRs.ownerDeployment = name;
    ES_DEBUG("k8s.deploy", "creating replicaset %s (replicas=%d)",
             rsName.c_str(), newRs.spec.replicas);
    api_.replicaSets().create(std::move(newRs));
    return;
  }

  if (record.deploymentVersion == deployment->meta.resourceVersion &&
      record.rsVersion == rs->meta.resourceVersion) {
    return;
  }
  ++fullReconciles_;

  bool wrote = false;
  if (rs->spec.replicas != deployment->spec.replicas ||
      !templatesEqual(rs->spec.podTemplate, deployment->spec.podTemplate)) {
    const int replicas = deployment->spec.replicas;
    const PodTemplate podTemplate = deployment->spec.podTemplate;
    api_.replicaSets().update(rsName, [replicas, podTemplate](ReplicaSet& r) {
      r.spec.replicas = replicas;
      r.spec.podTemplate = podTemplate;
    });
    wrote = true;
  }

  // Roll the RS status up into the Deployment status when stale.
  if (deployment->status.replicas != rs->status.replicas ||
      deployment->status.readyReplicas != rs->status.readyReplicas) {
    const ReplicaSetStatus status = rs->status;
    api_.deployments().update(name, [status](Deployment& d) {
      d.status.replicas = status.replicas;
      d.status.readyReplicas = status.readyReplicas;
    });
    wrote = true;
  }

  // Versions start at 1: a reconcile that wrote records no memo.
  record.deploymentVersion = wrote ? 0 : deployment->meta.resourceVersion;
  record.rsVersion = wrote ? 0 : rs->meta.resourceVersion;
}

// ------------------------------------------------------------------------
// ReplicaSetController
// ------------------------------------------------------------------------

ReplicaSetController::ReplicaSetController(Simulation& sim, ApiServer& api,
                                           const ControlPlaneParams& params)
    : api_(api),
      queue_(sim, api.replicaSets(), params.controllerSyncLatency,
             [this](const std::string& name, Record& record) {
               reconcile(name, record);
             }) {
  api_.replicaSets().watch([this](const WatchEvent<ReplicaSet>& event) {
    queue_.enqueue(event.object.meta.name);
  });
  api_.pods().watch([this](const WatchEvent<Pod>& event) {
    if (!event.object.ownerReplicaSet.empty()) {
      queue_.enqueue(event.object.ownerReplicaSet);
    }
  });
  resync_.start(sim, params.controllerResyncPeriod, [this] {
    queue_.enqueueAll();
    return true;
  }, params.controllerResyncPeriod);
}

void ReplicaSetController::reconcile(const std::string& name,
                                     Record& record) {
  const ReplicaSet* rs = record.replicaSet.get(api_.replicaSets(), name);
  if (record.ownedCounter == nullptr) {
    record.ownedCounter = &api_.pods().ownerVersion(name);
  }
  if (rs != nullptr && record.rsVersion == rs->meta.resourceVersion &&
      record.ownedVersion == *record.ownedCounter) {
    return;
  }
  ++fullReconciles_;

  // Owned pods, in name order (the order the removals below are issued).
  const std::vector<const Pod*> owned = api_.pods().listByOwner(name);

  if (rs == nullptr) {
    for (const auto* pod : owned) api_.pods().remove(pod->meta.name);
    return;
  }

  bool wrote = false;
  std::vector<const Pod*> alive;
  for (const auto* pod : owned) {
    if (podAlive(*pod)) {
      alive.push_back(pod);
    } else {
      // Failed/succeeded pods are garbage-collected and replaced.
      api_.pods().remove(pod->meta.name);
      wrote = true;
    }
  }

  const int want = rs->spec.replicas;
  const int have = static_cast<int>(alive.size());

  if (have < want) {
    for (int i = 0; i < want - have; ++i) {
      Pod pod;
      pod.meta.name = strprintf("%s-%llu", name.c_str(),
                                static_cast<unsigned long long>(podCounter_++));
      pod.meta.labels = rs->spec.podTemplate.labels;
      pod.spec = rs->spec.podTemplate.spec;
      pod.ownerReplicaSet = name;
      ES_DEBUG("k8s.rs", "creating pod %s", pod.meta.name.c_str());
      api_.pods().create(std::move(pod));
    }
    wrote = true;
  } else if (have > want) {
    // Scale down: prefer not-ready pods, then newest first.
    std::vector<const Pod*> victims = alive;
    std::sort(victims.begin(), victims.end(), [](const Pod* a, const Pod* b) {
      if (a->status.ready != b->status.ready) return !a->status.ready;
      return a->meta.uid > b->meta.uid;
    });
    for (int i = 0; i < have - want; ++i) {
      ES_DEBUG("k8s.rs", "deleting pod %s (scale down)",
               victims[static_cast<std::size_t>(i)]->meta.name.c_str());
      api_.pods().remove(victims[static_cast<std::size_t>(i)]->meta.name);
    }
    wrote = true;
  }

  // Refresh status.
  int ready = 0;
  for (const auto* pod : alive) {
    if (pod->status.ready) ++ready;
  }
  if (rs->status.replicas != have || rs->status.readyReplicas != ready) {
    api_.replicaSets().update(name, [have, ready](ReplicaSet& r) {
      r.status.replicas = have;
      r.status.readyReplicas = ready;
    });
    wrote = true;
  }

  record.rsVersion = wrote ? 0 : rs->meta.resourceVersion;
  record.ownedVersion = *record.ownedCounter;
}

// ------------------------------------------------------------------------
// EndpointsController
// ------------------------------------------------------------------------

EndpointsController::EndpointsController(Simulation& sim, ApiServer& api,
                                         const ControlPlaneParams& params)
    : api_(api),
      queue_(sim, api.services(), params.endpointsSyncLatency,
             [this](const std::string& name, Record& record) {
               reconcile(name, record);
             }) {
  api_.services().watch([this](const WatchEvent<Service>& event) {
    queue_.enqueue(event.object.meta.name);
  });
  api_.pods().watch(
      [this](const WatchEvent<Pod>& /*event*/) { queue_.enqueueAll(); });
  resync_.start(sim, params.controllerResyncPeriod, [this] {
    queue_.enqueueAll();
    return true;
  }, params.controllerResyncPeriod);
}

void EndpointsController::reconcile(const std::string& serviceName,
                                    Record& record) {
  const Service* service = record.service.get(api_.services(), serviceName);
  const Endpoints* existing =
      record.endpoints.get(api_.endpoints(), serviceName);

  if (service == nullptr) {
    if (existing != nullptr) api_.endpoints().remove(serviceName);
    return;
  }

  // Resource versions start at 1, so 0 stands for "no Endpoints object".
  const std::uint64_t endpointsVersion =
      existing != nullptr ? existing->meta.resourceVersion : 0;
  Memo& memo = record.memo;
  if (memo.podCounter != nullptr && *memo.podCounter == memo.podVersion &&
      memo.serviceVersion == service->meta.resourceVersion &&
      memo.endpointsVersion == endpointsVersion) {
    return;
  }
  memo = Memo{};
  ++fullReconciles_;

  const Labels& selector = service->spec.selector;
  std::vector<Endpoint> addresses;
  for (const auto* pod : api_.pods().listBySelector(selector)) {
    if (pod->status.ready) addresses.push_back(pod->status.endpoint);
  }
  std::sort(addresses.begin(), addresses.end());

  if (existing == nullptr) {
    Endpoints endpoints;
    endpoints.meta.name = serviceName;
    endpoints.addresses = std::move(addresses);
    api_.endpoints().create(std::move(endpoints));
  } else if (existing->addresses != addresses) {
    api_.endpoints().update(serviceName, [addresses](Endpoints& e) {
      e.addresses = addresses;
    });
  } else if (!selector.empty()) {
    // No write.  The empty selector matches every pod, which no one label
    // counter covers, so it is never memoised.
    const auto& [key, value] = *selector.begin();
    memo.podCounter = &api_.pods().labelVersion(key, value);
    memo.podVersion = *memo.podCounter;
    memo.serviceVersion = service->meta.resourceVersion;
    memo.endpointsVersion = endpointsVersion;
  }
}

}  // namespace edgesim::k8s
