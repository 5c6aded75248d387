#include "k8s/kubelet.hpp"

#include "util/log.hpp"

namespace edgesim::k8s {

using container::ContainerId;
using container::ContainerState;

Kubelet::Kubelet(Simulation& sim, ApiServer& api,
                 const ControlPlaneParams& params, NodeHandle node)
    : sim_(sim), api_(api), params_(params), node_(std::move(node)) {
  ES_ASSERT(node_.host != nullptr && node_.runtime != nullptr &&
            node_.puller != nullptr);
  api_.pods().watch(
      [this](const WatchEvent<Pod>& event) { onPodEvent(event); });
  resync_.start(sim_, params_.kubeletResyncPeriod, [this] {
    resyncPods();
    return true;
  }, params_.kubeletResyncPeriod);
}

void Kubelet::resyncPods() {
  // The pod store and workers_ are both in name order, so one merged walk
  // pairs each pod with its worker.  syncPod acts only on a pod of this
  // node with no worker or with a worker for an older uid; every other pod
  // is skipped here without a lookup.  syncPod may add the current pod's
  // worker and erase it first, never another's, so the walk steps past it
  // before the call.
  auto worker = workers_.begin();
  api_.pods().forEach([&](const Pod& pod) {
    if (pod.spec.nodeName != node_.name) return;
    const std::string& name = pod.meta.name;
    while (worker != workers_.end() && worker->first < name) ++worker;
    if (worker == workers_.end() || worker->first != name) {
      syncPod(pod, nullptr);
    } else if (worker->second.podUid != pod.meta.uid) {
      const auto current = worker++;
      syncPod(pod, &current->second);
    }
  });
}

void Kubelet::onPodEvent(const WatchEvent<Pod>& event) {
  const Pod& pod = event.object;
  if (event.type == WatchEventType::kDeleted) {
    if (workers_.count(pod.meta.name) != 0) teardown(pod.meta.name);
    return;
  }
  if (pod.spec.nodeName != node_.name) return;
  // React after the kubelet's sync latency (informer -> pod worker).
  const std::string name = pod.meta.name;
  sim_.schedule(params_.kubeletSyncLatency, [this, name] { syncPod(name); });
}

void Kubelet::syncPod(const std::string& podName) {
  const Pod* pod = api_.pods().get(podName);
  if (pod == nullptr) {
    if (workers_.count(podName) != 0) teardown(podName);
    return;
  }
  const auto it = workers_.find(podName);
  syncPod(*pod, it == workers_.end() ? nullptr : &it->second);
}

void Kubelet::syncPod(const Pod& pod, const PodWorker* worker) {
  if (pod.spec.nodeName != node_.name) return;
  if (pod.status.phase == PodPhase::kFailed) return;

  if (worker == nullptr) {
    startPod(pod);
    return;
  }
  // If the API object was replaced (same name, new uid), restart from
  // scratch.
  if (worker->podUid != pod.meta.uid) {
    teardown(pod.meta.name);
    startPod(pod);
  }
}

void Kubelet::startPod(const Pod& pod) {
  PodWorker& worker = workers_[pod.meta.name];
  worker.podUid = pod.meta.uid;
  worker.creating = true;

  // Pull every container image first (already-cached pulls are instant).
  const auto images = pod.spec.containers;
  auto remaining = std::make_shared<std::size_t>(images.size());
  auto failed = std::make_shared<bool>(false);
  const std::string podName = pod.meta.name;

  ES_DEBUG("kubelet", "%s: starting pod %s (%zu containers)",
           node_.name.c_str(), podName.c_str(), images.size());

  for (const auto& spec : images) {
    auto onPulled = [this, podName, remaining, failed](Status status) {
      if (!status.ok()) {
        *failed = true;
        ES_WARN("kubelet", "%s: image pull failed for pod %s: %s",
                node_.name.c_str(), podName.c_str(),
                status.error().toString().c_str());
      }
      if (--*remaining > 0) return;
      if (*failed) {
        markFailed(podName);
        return;
      }
      const Pod* current = api_.pods().get(podName);
      if (current == nullptr) return;  // deleted while pulling
      launchContainers(*current);
    };
    if (node_.registry != nullptr) {
      node_.puller->pull(*node_.registry, spec.image, onPulled);
    } else if (node_.runtime->store().hasImage(spec.image)) {
      sim_.schedule(SimTime::zero(), [onPulled] { onPulled(Status()); });
    } else {
      sim_.schedule(SimTime::zero(), [onPulled, spec] {
        onPulled(makeError(Errc::kUnavailable,
                           "no registry and image absent: " +
                               spec.image.toString()));
      });
    }
  }
}

void Kubelet::launchContainers(const Pod& pod) {
  auto it = workers_.find(pod.meta.name);
  if (it == workers_.end()) return;
  const std::string podName = pod.meta.name;

  // Scripted crash-on-start: the kubelet's pod worker dies before the
  // containers come up, the pod goes Failed, and the ReplicaSet controller
  // replaces it -- the same recovery path a real kubelet crash exercises.
  if (faults_ != nullptr) {
    if (auto injected =
            faults_->evaluate(fault::FaultSite::kContainerStart, node_.name);
        injected.has_value() && injected->fail) {
      ++injectedCrashes_;
      ES_WARN("kubelet", "%s: injected crash launching pod %s: %s",
              node_.name.c_str(), podName.c_str(),
              injected->error.toString().c_str());
      sim_.schedule(injected->stall,
                    [this, podName] { markFailed(podName); });
      return;
    }
  }

  auto remaining = std::make_shared<std::size_t>(pod.spec.containers.size());
  for (const auto& spec : pod.spec.containers) {
    // containerd create latency, then start.
    sim_.schedule(node_.runtime->params().createLatency, [this, podName, spec,
                                                          remaining] {
      auto wit = workers_.find(podName);
      if (wit == workers_.end()) return;
      const auto created = node_.runtime->create(spec);
      if (!created.ok()) {
        ES_WARN("kubelet", "%s: create failed for %s: %s", node_.name.c_str(),
                podName.c_str(), created.error().toString().c_str());
        markFailed(podName);
        return;
      }
      const ContainerId id = created.value();
      wit->second.containers.push_back(id);
      const Status startStatus =
          node_.runtime->start(id, [this, podName, remaining](Status status) {
            if (!status.ok()) {
              markFailed(podName);
              return;
            }
            if (--*remaining > 0) return;
            // All containers started: pod is Running; begin readiness checks.
            api_.pods().update(podName, [](Pod& p) {
              p.status.phase = PodPhase::kRunning;
            });
            ++startedPods_;
            beginProbing(podName);
          });
      if (!startStatus.ok()) markFailed(podName);
    });
  }
}

void Kubelet::beginProbing(std::string podName) {
  auto it = workers_.find(podName);
  if (it == workers_.end()) return;
  it->second.probe.start(
      sim_, params_.probePeriod,
      [this, podName] {
        probePod(podName);
        const auto wit = workers_.find(podName);
        return wit != workers_.end() && !wit->second.ready;
      },
      params_.probeInitialDelay);
}

void Kubelet::probePod(const std::string& podName) {
  auto it = workers_.find(podName);
  if (it == workers_.end()) return;
  PodWorker& worker = it->second;

  bool allReady = true;
  Endpoint endpoint;
  for (const ContainerId id : worker.containers) {
    const auto* info = node_.runtime->find(id);
    if (info == nullptr) {
      allReady = false;
      break;
    }
    if (info->state == ContainerState::kExited) {
      // Crash: restart with the kubelet's backoff, or fail the pod.
      if (worker.restarts >= kMaxRestarts) {
        markFailed(podName);
        return;
      }
      ++worker.restarts;
      ++restarts_;
      ES_DEBUG("kubelet", "%s: restarting crashed container in pod %s",
               node_.name.c_str(), podName.c_str());
      (void)node_.runtime->start(id, [](Status) {});
      allReady = false;
      continue;
    }
    if (!info->spec.app.exposesPort) continue;  // helper container
    if (info->state != ContainerState::kRunning || info->hostPort == 0) {
      allReady = false;
      continue;
    }
    endpoint = Endpoint(node_.host->ip(), info->hostPort);
  }

  if (allReady && endpoint.port != 0 && !worker.ready) {
    worker.ready = true;
    api_.pods().update(podName, [endpoint, this](Pod& p) {
      p.status.ready = true;
      p.status.endpoint = endpoint;
      p.status.readyAt = sim_.now();
    });
    ES_DEBUG("kubelet", "%s: pod %s ready at %s", node_.name.c_str(),
             podName.c_str(), endpoint.toString().c_str());
  }
}

void Kubelet::markFailed(std::string podName) {
  auto it = workers_.find(podName);
  if (it != workers_.end()) {
    it->second.probe.cancel();
    for (const ContainerId id : it->second.containers) {
      const auto* info = node_.runtime->find(id);
      if (info != nullptr && (info->state == ContainerState::kRunning ||
                              info->state == ContainerState::kStarting)) {
        (void)node_.runtime->stop(id, [](Status) {});
      }
    }
  }
  // Defer the erase: markFailed may run from inside the worker's own probe
  // tick, and erasing the worker there would destroy the executing closure.
  sim_.schedule(SimTime::zero(),
                [this, podName] { workers_.erase(podName); });
  api_.pods().update(podName, [](Pod& p) {
    p.status.phase = PodPhase::kFailed;
    p.status.ready = false;
  });
}

void Kubelet::teardown(const std::string& podName) {
  auto it = workers_.find(podName);
  if (it == workers_.end()) return;
  it->second.probe.cancel();
  for (const ContainerId id : it->second.containers) {
    const auto* info = node_.runtime->find(id);
    if (info == nullptr) continue;
    if (info->state == ContainerState::kRunning ||
        info->state == ContainerState::kStarting) {
      const ContainerId cid = id;
      (void)node_.runtime->stop(cid, [this, cid](Status) {
        (void)node_.runtime->remove(cid);
      });
    } else {
      (void)node_.runtime->remove(id);
    }
  }
  workers_.erase(it);
  ES_DEBUG("kubelet", "%s: tore down pod %s", node_.name.c_str(),
           podName.c_str());
}

}  // namespace edgesim::k8s
