// Kubernetes controller manager: Deployment, ReplicaSet and Endpoints
// controllers.
//
// Each controller is an idempotent reconciler driven by watch events plus a
// periodic resync, like real informer-based controllers.  Reconciliation
// work pays `controllerSyncLatency` before its API writes are issued --
// one of the hops that add up to the ~3 s Kubernetes scale-up (fig. 11).
#pragma once

#include <string>
#include <unordered_set>

#include "k8s/api_server.hpp"

namespace edgesim::k8s {

/// Deployment -> ReplicaSet.  One RS per Deployment (no rolling-update
/// history; the paper's workflow only creates and scales).
class DeploymentController {
 public:
  DeploymentController(Simulation& sim, ApiServer& api,
                       const ControlPlaneParams& params);

 private:
  void enqueue(const std::string& name);
  void reconcile(const std::string& name);
  static std::string rsNameFor(const std::string& deploymentName) {
    return deploymentName + "-rs";
  }

  Simulation& sim_;
  ApiServer& api_;
  const ControlPlaneParams& params_;
  PeriodicTimer resync_;
  std::unordered_set<std::string> queued_;
};

/// ReplicaSet -> Pods.
class ReplicaSetController {
 public:
  ReplicaSetController(Simulation& sim, ApiServer& api,
                       const ControlPlaneParams& params);

 private:
  void enqueue(const std::string& name);
  void reconcile(const std::string& name);

  Simulation& sim_;
  ApiServer& api_;
  const ControlPlaneParams& params_;
  PeriodicTimer resync_;
  std::unordered_set<std::string> queued_;
  std::uint64_t podCounter_ = 0;
};

/// Services + ready Pods -> Endpoints objects.
class EndpointsController {
 public:
  EndpointsController(Simulation& sim, ApiServer& api,
                      const ControlPlaneParams& params);

 private:
  /// Queue every service not already queued (on each pod event and at
  /// resync).  Deliberately not narrowed to the services matching the pod:
  /// a service queued by an unrelated pod event reconciles earlier and can
  /// publish its Endpoints earlier (DESIGN.md §16).
  void enqueueAll();
  void enqueue(const std::string& serviceName);
  void reconcile(const std::string& serviceName);

  Simulation& sim_;
  ApiServer& api_;
  const ControlPlaneParams& params_;
  PeriodicTimer resync_;
  std::unordered_set<std::string> queued_;
};

}  // namespace edgesim::k8s
