// ClusterAdapter: the controller's uniform interface to an edge cluster.
//
// The paper's controller talks to Docker and Kubernetes through their
// respective client libraries using ONE service definition for both (§V).
// Each adapter implements the deployment phases of fig. 4 (Pull, Create,
// Scale-Up, and the teardown phases Scale-Down / Remove / Delete) plus the
// state queries the Dispatcher needs (fig. 7) and the management-plane
// port probe used before flows are installed (§VI).
//
// A CloudAdapter represents "the real cloud": services registered there are
// always running, so forwarding a request toward the cloud is modelled as a
// redirect to the cloud instance.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/service_model.hpp"
#include "docker/engine.hpp"
#include "fault/fault_plan.hpp"
#include "k8s/cluster.hpp"

namespace edgesim::core {

class ClusterAdapter;

/// Told when one service's readyInstances() on an adapter may have gained
/// an instance (DESIGN §16.5): the Dispatcher parks its port poll on this
/// instead of ticking while nothing is ready.
class ReadinessObserver {
 public:
  virtual ~ReadinessObserver() = default;
  /// `service` is the ServiceModel's uniqueName.
  virtual void onReadinessChanged(ClusterAdapter& cluster,
                                  const std::string& service) = 0;
};

class ClusterAdapter {
 public:
  using Callback = std::function<void(Status)>;
  using ProbeCallback = std::function<void(bool open)>;

  ClusterAdapter(std::string name, int distanceRank)
      : name_(std::move(name)), distanceRank_(distanceRank) {}
  virtual ~ClusterAdapter() = default;

  const std::string& name() const { return name_; }
  int distanceRank() const { return distanceRank_; }
  virtual bool isCloud() const { return false; }

  /// Snapshot for the Global Scheduler.
  virtual ClusterView view(const ServiceModel& service) const = 0;

  /// Ready service instances (port open and serving).
  virtual std::vector<Endpoint> readyInstances(
      const ServiceModel& service) const = 0;

  // ---- deployment phases (fig. 4) ----------------------------------------
  virtual void pullImages(const ServiceModel& service, Callback cb) = 0;
  virtual void createService(const ServiceModel& service, Callback cb) = 0;
  virtual void scaleUp(const ServiceModel& service, Callback cb) = 0;
  virtual void scaleDown(const ServiceModel& service, Callback cb) = 0;
  virtual void removeService(const ServiceModel& service, Callback cb) = 0;
  virtual void deleteImages(const ServiceModel& service, Callback cb) = 0;

  /// Management-plane probe: is `instance`'s port open?  (The controller
  /// "continuously tests if the respective port is open" before setting up
  /// flows, §VI.)
  virtual void probeInstance(Endpoint instance, ProbeCallback cb) = 0;

  /// Consult `plan` (site kClusterRpc, target "<name>/<phase>") before each
  /// deployment-phase RPC: a triggered fault fails the phase after the
  /// fault's stall, which the Dispatcher's retry policy then handles.
  void setFaultPlan(fault::FaultPlan* plan) { faults_ = plan; }
  fault::FaultPlan* faultPlan() const { return faults_; }

  /// The one observer of readiness changes (nullptr = none).
  void setReadinessObserver(ReadinessObserver* observer) {
    readinessObserver_ = observer;
  }
  ReadinessObserver* readinessObserver() const { return readinessObserver_; }

 protected:
  /// Every adapter calls this whenever readyInstances(service) may have
  /// gained an instance, at the moment the state it reads changes (a store
  /// commit, a port opening) -- not when some watcher later hears of it.
  /// A change that can only remove instances needs no call: a parked poll
  /// waits for one to appear.
  void readinessChanged(const std::string& service) {
    if (readinessObserver_ != nullptr) {
      readinessObserver_->onReadinessChanged(*this, service);
    }
  }

  /// Evaluate the kClusterRpc site for `phase` ("pull", "create", ...).
  /// Returns a fault only when the RPC must fail; stall-only triggers are
  /// ignored at this site.
  std::optional<fault::InjectedFault> checkRpcFault(const char* phase) {
    if (faults_ == nullptr) return std::nullopt;
    auto injected = faults_->evaluate(fault::FaultSite::kClusterRpc,
                                      name_ + "/" + phase);
    if (injected.has_value() && !injected->fail) return std::nullopt;
    return injected;
  }

 private:
  std::string name_;
  int distanceRank_;
  fault::FaultPlan* faults_ = nullptr;
  ReadinessObserver* readinessObserver_ = nullptr;
};

// --------------------------------------------------------------------------

/// Docker cluster: one node running the Docker engine.
class DockerAdapter final : public ClusterAdapter {
 public:
  DockerAdapter(Simulation& sim, std::string name, int distanceRank,
                docker::DockerEngine& engine, int capacity = 100,
                SimTime mgmtRtt = SimTime::millis(1));
  ~DockerAdapter() override;

  ClusterView view(const ServiceModel& service) const override;
  std::vector<Endpoint> readyInstances(
      const ServiceModel& service) const override;
  void pullImages(const ServiceModel& service, Callback cb) override;
  void createService(const ServiceModel& service, Callback cb) override;
  void scaleUp(const ServiceModel& service, Callback cb) override;
  void scaleDown(const ServiceModel& service, Callback cb) override;
  void removeService(const ServiceModel& service, Callback cb) override;
  void deleteImages(const ServiceModel& service, Callback cb) override;
  void probeInstance(Endpoint instance, ProbeCallback cb) override;

  docker::DockerEngine& engine() { return engine_; }

 private:
  std::vector<const container::ContainerInfo*> containersOf(
      const ServiceModel& service) const;

  Simulation& sim_;
  docker::DockerEngine& engine_;
  int capacity_;
  SimTime mgmtRtt_;
  /// uniqueName -> container ids (created once, started on scale-up).
  std::map<std::string, std::vector<container::ContainerId>> services_;
};

// --------------------------------------------------------------------------

/// Kubernetes cluster adapter.
class K8sAdapter final : public ClusterAdapter {
 public:
  K8sAdapter(Simulation& sim, std::string name, int distanceRank,
             k8s::K8sCluster& cluster, std::vector<k8s::NodeHandle> nodes,
             SimTime mgmtRtt = SimTime::millis(1));
  ~K8sAdapter() override;

  ClusterView view(const ServiceModel& service) const override;
  std::vector<Endpoint> readyInstances(
      const ServiceModel& service) const override;
  void pullImages(const ServiceModel& service, Callback cb) override;
  void createService(const ServiceModel& service, Callback cb) override;
  void scaleUp(const ServiceModel& service, Callback cb) override;
  void scaleDown(const ServiceModel& service, Callback cb) override;
  void removeService(const ServiceModel& service, Callback cb) override;
  void deleteImages(const ServiceModel& service, Callback cb) override;
  void probeInstance(Endpoint instance, ProbeCallback cb) override;

  k8s::K8sCluster& cluster() { return cluster_; }

  /// Translate a ServiceModel into the K8s API objects (exposed for tests).
  static k8s::Deployment toDeployment(const ServiceModel& service,
                                      int replicas);
  static k8s::Service toService(const ServiceModel& service);

 private:
  Simulation& sim_;
  k8s::K8sCluster& cluster_;
  std::vector<k8s::NodeHandle> nodes_;
  SimTime mgmtRtt_;
};

// --------------------------------------------------------------------------

/// The "real cloud": every registered service is permanently running.
class CloudAdapter final : public ClusterAdapter {
 public:
  CloudAdapter(Simulation& sim, std::string name, int distanceRank,
               Host& cloudHost, const AppProfileRegistry& profiles,
               SimTime mgmtRtt = SimTime::millis(10));

  bool isCloud() const override { return true; }

  /// Start the always-on cloud instance for `service`.
  Endpoint hostService(const ServiceModel& service);

  ClusterView view(const ServiceModel& service) const override;
  std::vector<Endpoint> readyInstances(
      const ServiceModel& service) const override;
  void pullImages(const ServiceModel& service, Callback cb) override;
  void createService(const ServiceModel& service, Callback cb) override;
  void scaleUp(const ServiceModel& service, Callback cb) override;
  void scaleDown(const ServiceModel& service, Callback cb) override;
  void removeService(const ServiceModel& service, Callback cb) override;
  void deleteImages(const ServiceModel& service, Callback cb) override;
  void probeInstance(Endpoint instance, ProbeCallback cb) override;

  Host& host() { return host_; }

 private:
  void finish(Callback cb);

  Simulation& sim_;
  Host& host_;
  const AppProfileRegistry& profiles_;
  SimTime mgmtRtt_;
  std::uint16_t nextPort_ = 20000;
  std::map<std::string, Endpoint> instances_;  // uniqueName -> endpoint
  Rng rng_;
};

}  // namespace edgesim::core
