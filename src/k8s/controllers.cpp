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
    : sim_(sim), api_(api), params_(params) {
  api_.deployments().watch([this](const WatchEvent<Deployment>& event) {
    enqueue(event.object.meta.name);
  });
  // ReplicaSet status changes roll up into Deployment status.
  api_.replicaSets().watch([this](const WatchEvent<ReplicaSet>& event) {
    if (!event.object.ownerDeployment.empty()) {
      enqueue(event.object.ownerDeployment);
    }
  });
  resync_.start(sim_, params_.controllerResyncPeriod, [this] {
    for (const auto* deployment : api_.deployments().list()) {
      enqueue(deployment->meta.name);
    }
    return true;
  }, params_.controllerResyncPeriod);
}

void DeploymentController::enqueue(const std::string& name) {
  if (!queued_.insert(name).second) return;  // already pending
  sim_.schedule(params_.controllerSyncLatency, [this, name] {
    queued_.erase(name);
    reconcile(name);
  });
}

void DeploymentController::reconcile(const std::string& name) {
  const Deployment* deployment = api_.deployments().get(name);
  const std::string rsName = rsNameFor(name);
  const ReplicaSet* rs = api_.replicaSets().get(rsName);

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

  if (rs->spec.replicas != deployment->spec.replicas ||
      !templatesEqual(rs->spec.podTemplate, deployment->spec.podTemplate)) {
    const int replicas = deployment->spec.replicas;
    const PodTemplate podTemplate = deployment->spec.podTemplate;
    api_.replicaSets().update(rsName, [replicas, podTemplate](ReplicaSet& r) {
      r.spec.replicas = replicas;
      r.spec.podTemplate = podTemplate;
    });
  }

  // Roll the RS status up into the Deployment status when stale.
  if (deployment->status.replicas != rs->status.replicas ||
      deployment->status.readyReplicas != rs->status.readyReplicas) {
    const ReplicaSetStatus status = rs->status;
    api_.deployments().update(name, [status](Deployment& d) {
      d.status.replicas = status.replicas;
      d.status.readyReplicas = status.readyReplicas;
    });
  }
}

// ------------------------------------------------------------------------
// ReplicaSetController
// ------------------------------------------------------------------------

ReplicaSetController::ReplicaSetController(Simulation& sim, ApiServer& api,
                                           const ControlPlaneParams& params)
    : sim_(sim), api_(api), params_(params) {
  api_.replicaSets().watch([this](const WatchEvent<ReplicaSet>& event) {
    enqueue(event.object.meta.name);
  });
  api_.pods().watch([this](const WatchEvent<Pod>& event) {
    if (!event.object.ownerReplicaSet.empty()) {
      enqueue(event.object.ownerReplicaSet);
    }
  });
  resync_.start(sim_, params_.controllerResyncPeriod, [this] {
    for (const auto* rs : api_.replicaSets().list()) {
      enqueue(rs->meta.name);
    }
    return true;
  }, params_.controllerResyncPeriod);
}

void ReplicaSetController::enqueue(const std::string& name) {
  if (!queued_.insert(name).second) return;
  sim_.schedule(params_.controllerSyncLatency, [this, name] {
    queued_.erase(name);
    reconcile(name);
  });
}

void ReplicaSetController::reconcile(const std::string& name) {
  const ReplicaSet* rs = api_.replicaSets().get(name);

  // Owned pods, in name order (the order the removals below are issued).
  const std::vector<const Pod*> owned = api_.pods().listByOwner(name);

  if (rs == nullptr) {
    for (const auto* pod : owned) api_.pods().remove(pod->meta.name);
    return;
  }

  std::vector<const Pod*> alive;
  for (const auto* pod : owned) {
    if (podAlive(*pod)) {
      alive.push_back(pod);
    } else {
      // Failed/succeeded pods are garbage-collected and replaced.
      api_.pods().remove(pod->meta.name);
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
  }
}

// ------------------------------------------------------------------------
// EndpointsController
// ------------------------------------------------------------------------

EndpointsController::EndpointsController(Simulation& sim, ApiServer& api,
                                         const ControlPlaneParams& params)
    : sim_(sim), api_(api), params_(params) {
  api_.services().watch([this](const WatchEvent<Service>& event) {
    enqueue(event.object.meta.name);
  });
  api_.pods().watch(
      [this](const WatchEvent<Pod>& /*event*/) { enqueueAll(); });
  resync_.start(sim_, params_.controllerResyncPeriod, [this] {
    enqueueAll();
    return true;
  }, params_.controllerResyncPeriod);
}

void EndpointsController::enqueueAll() {
  // Every service not already queued, as one event rather than one per
  // service: the per-service events would share one timestamp and take
  // consecutive sequence numbers, so nothing could run between them and
  // this batch runs the same reconciles in the same order.  The services
  // and the records are both in name order, so one merged walk finds or
  // adds each service's record.
  const std::uint64_t batch = ++lastBatch_;
  bool any = false;
  auto record = records_.begin();
  api_.services().forEach([&](const Service& service) {
    const std::string& name = service.meta.name;
    while (record != records_.end() && record->first < name) ++record;
    if (record == records_.end() || record->first != name) {
      record = records_.emplace_hint(record, name, ServiceRecord{});
    }
    any |= mark(record->second, batch);
  });
  if (!any) return;
  sim_.schedule(params_.endpointsSyncLatency,
                [this, batch] { runBatch(batch); });
}

void EndpointsController::enqueue(const std::string& serviceName) {
  const std::uint64_t batch = ++lastBatch_;
  if (!mark(records_[serviceName], batch)) return;
  sim_.schedule(params_.endpointsSyncLatency,
                [this, batch] { runBatch(batch); });
}

bool EndpointsController::mark(ServiceRecord& record, std::uint64_t batch) {
  if (record.queued) return false;  // already pending
  record.queued = true;
  record.batch = batch;
  return true;
}

void EndpointsController::runBatch(std::uint64_t batch) {
  for (auto& [serviceName, record] : records_) {
    if (!record.queued || record.batch != batch) continue;
    record.queued = false;
    reconcile(serviceName, record);
  }
}

void EndpointsController::reconcile(const std::string& serviceName,
                                    ServiceRecord& record) {
  const Service* service = api_.services().get(serviceName);
  const Endpoints* existing = api_.endpoints().get(serviceName);

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
