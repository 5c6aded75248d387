// Kubernetes controller manager: Deployment, ReplicaSet and Endpoints
// controllers.
//
// Each controller is an idempotent reconciler driven by watch events plus a
// periodic resync, like real informer-based controllers.  Reconciliation
// work pays `controllerSyncLatency` before its API writes are issued --
// one of the hops that add up to the ~3 s Kubernetes scale-up (fig. 11).
#pragma once

#include <cstdint>
#include <map>
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
///
/// Wide in simulated time, narrow on the host (DESIGN.md §16.5).  Every pod
/// event and every resync queues every service not already queued, as one
/// batch event -- deliberately not narrowed to the services matching the
/// pod: a service queued by an unrelated pod event reconciles earlier and
/// can publish its Endpoints earlier (§16.3).  On the host, a queued
/// service whose inputs did not change since its last no-op reconcile is
/// skipped: its Service and Endpoints resourceVersions and the commit
/// counter of its selector's first label pair (Store::labelVersion) all
/// stand still, so the reconcile would read the same pods and write
/// nothing again.
class EndpointsController {
 public:
  EndpointsController(Simulation& sim, ApiServer& api,
                      const ControlPlaneParams& params);

  /// Reconciles that listed the service's pods: the ones a memo did not
  /// skip, and that found the Service.
  std::uint64_t fullReconciles() const { return fullReconciles_; }

 private:
  /// The inputs a reconcile that issued no write read.  While all three
  /// are unchanged, another reconcile would issue no write either.
  struct Memo {
    const std::uint64_t* podCounter = nullptr;  // nullptr: nothing recorded
    std::uint64_t podVersion = 0;
    std::uint64_t serviceVersion = 0;
    std::uint64_t endpointsVersion = 0;
  };
  /// Per service name, kept in name order: whether it is queued, under
  /// which batch, and its memo.
  struct ServiceRecord {
    bool queued = false;
    std::uint64_t batch = 0;
    Memo memo;
  };

  /// Queue every service not already queued (on each pod event and at
  /// resync), as one batch event.
  void enqueueAll();
  void enqueue(const std::string& serviceName);
  /// Mark `record` queued under `batch`; false when it already was queued.
  static bool mark(ServiceRecord& record, std::uint64_t batch);
  /// Reconcile, in name order, the services still queued under `batch`.
  void runBatch(std::uint64_t batch);
  void reconcile(const std::string& serviceName, ServiceRecord& record);

  Simulation& sim_;
  ApiServer& api_;
  const ControlPlaneParams& params_;
  PeriodicTimer resync_;
  std::map<std::string, ServiceRecord> records_;
  std::uint64_t lastBatch_ = 0;
  std::uint64_t fullReconciles_ = 0;
};

}  // namespace edgesim::k8s
