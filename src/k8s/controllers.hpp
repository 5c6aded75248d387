// Kubernetes controller manager: Deployment, ReplicaSet and Endpoints
// controllers.
//
// Each controller is an idempotent reconciler driven by watch events plus a
// periodic resync, like real informer-based controllers.  Reconciliation
// work pays `controllerSyncLatency` before its API writes are issued --
// one of the hops that add up to the ~3 s Kubernetes scale-up (fig. 11).
#pragma once

#include <cstdint>
#include <string>

#include "k8s/api_server.hpp"
#include "k8s/reconcile_queue.hpp"

namespace edgesim::k8s {

/// Deployment -> ReplicaSet.  One RS per Deployment (no rolling-update
/// history; the paper's workflow only creates and scales).
///
/// Watch events queue one Deployment each; the resync queues them all as
/// one batch (ReconcileQueue).  A reconcile whose Deployment and
/// ReplicaSet are both at the resourceVersions of its last no-op reconcile
/// is skipped on the host: it would compare the same specs and statuses
/// and write nothing again (DESIGN.md §16.7).
class DeploymentController {
 public:
  DeploymentController(Simulation& sim, ApiServer& api,
                       const ControlPlaneParams& params);

  /// Reconciles that found the Deployment and were not skipped by a memo.
  std::uint64_t fullReconciles() const { return fullReconciles_; }

 private:
  /// Per Deployment name: its ReplicaSet's name, both objects' cached
  /// lookups, and the memo of the last reconcile that wrote nothing
  /// (resourceVersions start at 1, so 0 is "nothing recorded").
  struct Record {
    std::string rsName;
    CachedLookup<Deployment> deployment;
    CachedLookup<ReplicaSet> replicaSet;
    std::uint64_t deploymentVersion = 0;
    std::uint64_t rsVersion = 0;
  };

  void reconcile(const std::string& name, Record& record);
  static std::string rsNameFor(const std::string& deploymentName) {
    return deploymentName + "-rs";
  }

  ApiServer& api_;
  PeriodicTimer resync_;
  ReconcileQueue<Deployment, Record> queue_;
  std::uint64_t fullReconciles_ = 0;
};

/// ReplicaSet -> Pods.
///
/// Queued like the Deployments above.  A reconcile whose ReplicaSet is at
/// the resourceVersion, and whose owned pods at the commit counter
/// (Store::ownerVersion), of its last no-op reconcile is skipped on the
/// host: it would list the same pods and write nothing again.
class ReplicaSetController {
 public:
  ReplicaSetController(Simulation& sim, ApiServer& api,
                       const ControlPlaneParams& params);

  /// Reconciles that listed the owned pods: the ones a memo did not skip.
  std::uint64_t fullReconciles() const { return fullReconciles_; }

 private:
  /// Per ReplicaSet name: its cached lookup, its owned pods' commit
  /// counter (fetched once; the reference never dangles) and the memo of
  /// the last reconcile that wrote nothing (rsVersion 0: none recorded).
  struct Record {
    CachedLookup<ReplicaSet> replicaSet;
    const std::uint64_t* ownedCounter = nullptr;
    std::uint64_t rsVersion = 0;
    std::uint64_t ownedVersion = 0;
  };

  void reconcile(const std::string& name, Record& record);

  ApiServer& api_;
  PeriodicTimer resync_;
  ReconcileQueue<ReplicaSet, Record> queue_;
  std::uint64_t podCounter_ = 0;
  std::uint64_t fullReconciles_ = 0;
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
  /// Per service name: the Service's and the Endpoints' cached lookups and
  /// the memo.
  struct Record {
    CachedLookup<Service> service;
    CachedLookup<Endpoints> endpoints;
    Memo memo;
  };

  void reconcile(const std::string& serviceName, Record& record);

  ApiServer& api_;
  PeriodicTimer resync_;
  ReconcileQueue<Service, Record> queue_;
  std::uint64_t fullReconciles_ = 0;
};

}  // namespace edgesim::k8s
