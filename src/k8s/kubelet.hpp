// Kubelet: runs pods bound to its node.
//
// Responsibilities modelled: reacting to pod bindings (watch + sync
// latency), pulling images through the node's registry binding, creating
// and starting containers via the shared containerd runtime, readiness
// probing (initial delay + period -- a visible chunk of the K8s scale-up
// time), status updates through the API server, container restarts with
// backoff, and teardown on pod deletion.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "k8s/api_server.hpp"
#include "k8s/node.hpp"

namespace edgesim::k8s {

class Kubelet {
 public:
  Kubelet(Simulation& sim, ApiServer& api, const ControlPlaneParams& params,
          NodeHandle node);

  const std::string& nodeName() const { return node_.name; }
  std::uint64_t startedPods() const { return startedPods_; }
  std::uint64_t restartedContainers() const { return restarts_; }

  /// Consult `plan` (site kContainerStart, target = node name) when a pod's
  /// containers launch: a triggered fault crashes the kubelet's pod worker
  /// (the pod is marked Failed and its ReplicaSet replaces it).
  void setFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }
  std::uint64_t injectedCrashes() const { return injectedCrashes_; }

  /// Containers may crash after start; this caps restart attempts before
  /// the pod is marked Failed (and replaced by its ReplicaSet).
  static constexpr int kMaxRestarts = 3;

 private:
  struct PodWorker {
    std::uint64_t podUid = 0;
    std::vector<container::ContainerId> containers;
    bool creating = false;
    bool ready = false;
    int restarts = 0;
    PeriodicTimer probe;
  };

  // syncPod and teardown borrow a name the pod store, a watch event or a
  // queued closure owns: store mutations commit in later events, so the
  // name outlives the call.  beginProbing and markFailed take theirs by
  // value: their closures keep a copy.
  void onPodEvent(const WatchEvent<Pod>& event);
  /// The 1 s resync: syncPod for every pod of this node it can act on.
  void resyncPods();
  void syncPod(const std::string& podName);
  /// `worker` is the pod's worker (nullptr: none).
  void syncPod(const Pod& pod, const PodWorker* worker);
  void startPod(const Pod& pod);
  void launchContainers(const Pod& pod);
  void beginProbing(std::string podName);
  void probePod(const std::string& podName);
  void teardown(const std::string& podName);
  void markFailed(std::string podName);

  Simulation& sim_;
  ApiServer& api_;
  const ControlPlaneParams& params_;
  NodeHandle node_;
  fault::FaultPlan* faults_ = nullptr;
  std::map<std::string, PodWorker> workers_;  // key: pod name
  PeriodicTimer resync_;
  std::uint64_t startedPods_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t injectedCrashes_ = 0;
};

}  // namespace edgesim::k8s
