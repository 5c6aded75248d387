// Kubernetes API object model (the subset the paper's controller uses):
// Deployment, ReplicaSet, Pod, Service, Endpoints.
//
// The paper deploys edge services as a Deployment (created with zero
// replicas -- "scale to zero") plus a Service; scale-up raises
// `spec.replicas`.  We model the controller-visible surface of these
// objects; fields irrelevant to timing/behaviour are omitted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "container/spec.hpp"
#include "net/addr.hpp"
#include "sim/time.hpp"

namespace edgesim::k8s {

using Labels = std::map<std::string, std::string>;

/// True when every entry of `selector` appears in `labels`.
bool selectorMatches(const Labels& selector, const Labels& labels);

struct ObjectMeta {
  std::string name;
  Labels labels;
  Labels annotations;
  std::uint64_t uid = 0;
  std::uint64_t resourceVersion = 0;
  SimTime creationTime;
};

// ---------------------------------------------------------------- Pod ----

enum class PodPhase { kPending, kRunning, kSucceeded, kFailed };

const char* podPhaseName(PodPhase phase);

struct PodSpec {
  std::vector<container::ContainerSpec> containers;
  std::string nodeName;       // empty until scheduled
  std::string schedulerName;  // empty => default scheduler

  bool operator==(const PodSpec&) const = default;
};

struct PodStatus {
  PodPhase phase = PodPhase::kPending;
  bool ready = false;
  /// Endpoint of the primary (port-exposing) container once ready.
  Endpoint endpoint;
  SimTime readyAt;
};

struct Pod {
  ObjectMeta meta;
  PodSpec spec;
  PodStatus status;
  /// Name of the owning ReplicaSet ("" for bare pods).
  std::string ownerReplicaSet;

  bool scheduled() const { return !spec.nodeName.empty(); }
};

// --------------------------------------------------------- ReplicaSet ----

struct PodTemplate {
  Labels labels;
  PodSpec spec;

  bool operator==(const PodTemplate&) const = default;
};

struct ReplicaSetSpec {
  int replicas = 0;
  Labels selector;
  PodTemplate podTemplate;
};

struct ReplicaSetStatus {
  int replicas = 0;
  int readyReplicas = 0;
};

struct ReplicaSet {
  ObjectMeta meta;
  ReplicaSetSpec spec;
  ReplicaSetStatus status;
  std::string ownerDeployment;
};

// --------------------------------------------------------- Deployment ----

struct DeploymentSpec {
  int replicas = 0;
  Labels selector;
  PodTemplate podTemplate;
};

struct DeploymentStatus {
  int replicas = 0;
  int readyReplicas = 0;
};

struct Deployment {
  ObjectMeta meta;
  DeploymentSpec spec;
  DeploymentStatus status;
};

// ------------------------------------------------------------ Service ----

struct ServicePort {
  std::uint16_t port = 80;        // exposed port
  std::uint16_t targetPort = 80;  // container port
  std::string protocol = "TCP";
};

struct ServiceSpec {
  Labels selector;
  std::vector<ServicePort> ports;
};

struct Service {
  ObjectMeta meta;
  ServiceSpec spec;
};

// ---------------------------------------------------------- Endpoints ----

struct Endpoints {
  ObjectMeta meta;  // same name as the Service
  std::vector<Endpoint> addresses;
};

}  // namespace edgesim::k8s
