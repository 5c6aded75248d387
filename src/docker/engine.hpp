// DockerEngine: a Docker-daemon-like API over the containerd runtime.
//
// This is the "lightweight alternative" cluster type of the paper: a single
// node running plain Docker.  The engine adds API-call latency on top of
// containerd operations, supports label selectors (the paper's controller
// labels Docker deployments to "address and query edge services
// distinctly", §V), image pulls via a registry, and volume mappings.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "container/puller.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "fault/fault_plan.hpp"

namespace edgesim::docker {

using container::ContainerId;
using container::ContainerInfo;
using container::ContainerSpec;
using container::ImageRef;

struct EngineParams {
  /// REST API round trip to the daemon (per call).
  SimTime apiLatency = SimTime::millis(15);
};

class DockerEngine {
 public:
  using Callback = std::function<void(Status)>;
  using CreateCallback = std::function<void(Result<ContainerId>)>;

  DockerEngine(Simulation& sim, container::ContainerdRuntime& runtime,
               container::ImagePuller& puller, const container::Registry* registry,
               EngineParams params = {});

  /// `docker pull` -- fetch the image unless cached.
  void pull(const ImageRef& ref, Callback cb);

  /// `docker create` -- requires the image to be present.
  void createContainer(const ContainerSpec& spec, CreateCallback cb);

  /// `docker start` -- resolves when the start call returns (the app may
  /// still be initialising; readiness is observed via the service port).
  void startContainer(ContainerId id, Callback cb);

  void stopContainer(ContainerId id, Callback cb);
  void removeContainer(ContainerId id, Callback cb);
  /// `docker rmi` -- drop the image from the node cache (§IV-C Delete
  /// phase); shared layers referenced by other images survive.
  void removeImage(const ImageRef& ref, Callback cb);

  /// `docker ps --filter label=...` (synchronous snapshot; the controller
  /// maintains its own state and only needs point-in-time listings).
  std::vector<const ContainerInfo*> listContainers(
      const std::map<std::string, std::string>& labelSelector = {}) const;

  const ContainerInfo* inspect(ContainerId id) const;
  Result<Endpoint> endpointOf(ContainerId id) const;
  bool imageCached(const ImageRef& ref) const;

  container::ContainerdRuntime& runtime() { return runtime_; }
  const EngineParams& params() const { return params_; }

  /// Consult `plan` on create (kContainerCreate) and start (kContainerStart)
  /// calls; the target is the engine's node name.  Pass nullptr to detach.
  void setFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }

 private:
  void afterApi(std::function<void()> fn);
  /// Non-null when the daemon call must fail with an injected fault.
  std::optional<fault::InjectedFault> checkFault(fault::FaultSite site);

  Simulation& sim_;
  container::ContainerdRuntime& runtime_;
  container::ImagePuller& puller_;
  const container::Registry* registry_;
  fault::FaultPlan* faults_ = nullptr;
  EngineParams params_;
};

}  // namespace edgesim::docker
