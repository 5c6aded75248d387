// ContainerdRuntime: the shared container runtime on one node.
//
// Both the Docker engine and the Kubernetes kubelet in this codebase drive
// the same runtime instance -- exactly as on the paper's EGS testbed ("both
// Kubernetes and Docker use the same containerd container runtime").
// Operation latencies are calibrated so that a plain `docker run` of a
// cached small image completes in a few hundred milliseconds, dominated by
// namespace/cgroup creation (Mohan et al. [23]).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "container/layer_store.hpp"
#include "container/spec.hpp"
#include "net/host.hpp"
#include "sim/simulation.hpp"
#include "util/result.hpp"

namespace edgesim::container {

using ContainerId = std::uint64_t;

enum class ContainerState { kCreated, kStarting, kRunning, kExited, kRemoved };

const char* containerStateName(ContainerState state);

struct RuntimeParams {
  SimTime createLatency = SimTime::millis(80);
  /// Namespace + cgroup + rootfs mount setup; image-size independent.
  SimTime startLatency = SimTime::millis(280);
  /// Relative jitter (lognormal sigma) on create/start latencies.
  double latencyJitterSigma = 0.06;
  SimTime stopLatency = SimTime::millis(60);
  SimTime removeLatency = SimTime::millis(30);
};

struct ContainerInfo {
  ContainerId id = 0;
  ContainerSpec spec;
  ContainerState state = ContainerState::kCreated;
  std::uint16_t hostPort = 0;  // bound service port on the node (0 = none)
  SimTime createdAt;
  SimTime startedAt;
  SimTime readyAt;  // port bound; SimTime::max() until then
  /// Requests served by this container (monotonic; feeds autoscaling).
  std::uint64_t requestsServed = 0;
  /// Single-worker service queue: a request's compute starts when the
  /// previous one finished (what makes an overloaded instance visible and
  /// autoscaling meaningful).
  SimTime busyUntil;
};

class ContainerdRuntime {
 public:
  using Callback = std::function<void(Status)>;

  /// `host` is the node the containers' ports bind on.
  ContainerdRuntime(Simulation& sim, Host& host, LayerStore& store,
                    RuntimeParams params = {});

  /// Create a container (image must be fully present in the layer store).
  Result<ContainerId> create(const ContainerSpec& spec);

  /// Start a created container; `cb` fires when the start syscall returns
  /// (NOT when the app is ready -- readiness is the port becoming open).
  Status start(ContainerId id, Callback cb);

  Status stop(ContainerId id, Callback cb);
  Status remove(ContainerId id);

  const ContainerInfo* find(ContainerId id) const;
  /// All containers whose labels include every entry of `selector`.
  std::vector<const ContainerInfo*> list(
      const std::map<std::string, std::string>& selector = {}) const;

  /// The endpoint a running container serves on (node IP + host port).
  Result<Endpoint> endpointOf(ContainerId id) const;

  Host& host() { return host_; }
  LayerStore& store() { return store_; }
  const RuntimeParams& params() const { return params_; }

  std::uint64_t startedCount() const { return started_; }

  /// Called with a container's id when its service port opens, at that
  /// moment.  One listener; nullptr detaches it.
  using PortListener = std::function<void(ContainerId)>;
  void setPortListener(PortListener listener) {
    portListener_ = std::move(listener);
  }

 private:
  SimTime jittered(SimTime base);
  void bindPort(ContainerId id);

  Simulation& sim_;
  Host& host_;
  LayerStore& store_;
  RuntimeParams params_;
  Rng rng_;
  ContainerId nextId_ = 1;
  std::uint16_t nextHostPort_ = 30000;
  std::map<ContainerId, ContainerInfo> containers_;
  std::uint64_t started_ = 0;
  PortListener portListener_;
};

}  // namespace edgesim::container
