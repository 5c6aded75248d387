// Testbed: the paper's evaluation topology (fig. 8) in one object.
//
//   clients (20x Raspberry Pi)  --1 Gbps-->  OVS switch  --10 Gbps--> EGS
//                                                |-- WAN --> cloud host
//
// The Edge Gateway Server (EGS) hosts BOTH cluster types over one shared
// containerd runtime, exactly like the paper's testbed: a Docker engine and
// a single-node Kubernetes cluster.  An optional second, farther edge
// cluster supports the "on-demand deployment without waiting" scenario
// (fig. 3).  The SDN controller, switch, registries and the Table I service
// catalogue are wired and ready; benches/examples only pick services,
// clusters, and workloads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/serverless_adapter.hpp"
#include "core/service_catalog.hpp"
#include "metrics/recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/slo_watchdog.hpp"
#include "telemetry/snapshot_writer.hpp"
#include "trace/trace_recorder.hpp"

namespace edgesim::core {

enum class ClusterMode { kDockerOnly, kK8sOnly, kBoth, kServerlessOnly };

struct TestbedOptions {
  std::uint64_t seed = 1;
  std::size_t clientCount = 20;
  ClusterMode clusterMode = ClusterMode::kBoth;
  /// Use the in-network private registry instead of the public one.
  bool privateRegistry = false;
  /// Add a second, farther edge cluster (Docker) for fig. 3 scenarios.
  bool farEdge = false;
  /// Add a Wasm-style serverless runtime on the EGS next to the container
  /// clusters (§VIII future work); implied by kServerlessOnly.
  bool serverlessEdge = false;
  /// Per-request tracing (src/trace).  Cheap (plain vector appends in the
  /// single-threaded sim); disable only for huge batch sweeps.
  bool tracing = true;
  /// Hot-path telemetry (src/telemetry).  The registry itself is always
  /// owned by the testbed; this flag controls whether the controller,
  /// dispatcher, FlowMemory and client callbacks instrument into it.
  bool telemetry = true;
  /// Periodic snapshot export (sim-time interval); zero = no writer.  Each
  /// tick dumps `snapshot_NNNNNN.json` + `.prom` under `snapshotDir`.
  SimTime snapshotPeriod = SimTime::zero();
  std::string snapshotDir = "telemetry-out";
  /// Client <-> switch link (RPi, 1 Gbps).
  SimTime clientLatency = SimTime::micros(300);
  BitRate clientBandwidth = BitRate{1000u * 1000 * 1000};
  /// Switch <-> EGS link (10 Gbps).
  SimTime egsLatency = SimTime::micros(150);
  BitRate egsBandwidth = BitRate{10u * 1000 * 1000 * 1000};
  /// Switch <-> far edge link.
  SimTime farEdgeLatency = SimTime::millis(5);
  /// Switch <-> cloud WAN link.
  SimTime cloudLatency = SimTime::millis(25);
  BitRate cloudBandwidth = BitRate{1000u * 1000 * 1000};
  ControllerOptions controller;
  k8s::ControlPlaneParams k8sParams;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // ---- access -------------------------------------------------------------
  Simulation& sim() { return sim_; }
  Network& net() { return *net_; }
  EdgeController& controller() { return *controller_; }
  /// The controller's overload governor, or nullptr when
  /// options.controller.overload.enabled was false.
  overload::OverloadGovernor* governor() { return controller_->governor(); }
  ServiceCatalog& catalog() { return catalog_; }
  metrics::Recorder& recorder() { return recorder_; }
  trace::TraceRecorder& trace() { return trace_; }
  /// Live metrics registry; always usable (series exist only when
  /// options.telemetry was on or someone registered their own).
  telemetry::MetricsRegistry& telemetry() { return telemetry_; }
  /// Snapshot writer, or nullptr when options.snapshotPeriod was zero.
  telemetry::SnapshotWriter* snapshotWriter() { return snapshotWriter_.get(); }
  /// Lazily-created SLO watchdog, wired to the registry + trace recorder
  /// and attached to the controller (cold resolves feed its worst-request
  /// table).  Call addBudget()/start() on it before traffic.
  telemetry::SloWatchdog& watchdog();
  openflow::OpenFlowSwitch& ovs() { return *switch_; }
  Host& client(std::size_t index) { return *clients_.at(index); }
  std::size_t clientCount() const { return clients_.size(); }
  Host& egs() { return *egs_; }
  Host& cloud() { return *cloud_; }
  container::LayerStore& egsStore() { return *egsStore_; }
  container::Registry& registry() { return *activeRegistry_; }
  DockerAdapter* dockerAdapter() { return dockerAdapter_; }
  K8sAdapter* k8sAdapter() { return k8sAdapter_; }
  DockerAdapter* farEdgeAdapter() { return farAdapter_; }
  CloudAdapter* cloudAdapter() { return cloudAdapter_; }
  ServerlessAdapter* serverlessAdapter() { return serverlessAdapter_; }
  serverless::FaasRuntime* faasRuntime() { return faasRuntime_.get(); }
  k8s::K8sCluster* k8sCluster() { return k8sCluster_.get(); }
  docker::DockerEngine& dockerEngine() { return *dockerEngine_; }

  // ---- convenience ----------------------------------------------------------
  /// Register a catalogue service at `address` (tag = catalogue key).
  Result<const ServiceModel*> registerCatalogService(
      const std::string& key, Endpoint address);

  /// Pre-seed the EGS layer store with a catalogue entry's images.
  void warmImageCache(const std::string& key);

  /// Thread `plan` through every fault-injection site of the testbed:
  /// cluster adapters (kClusterRpc), image pullers (kRegistryPull, targets
  /// "egs" / "far-edge"), Docker engines (kContainerCreate/kContainerStart)
  /// and kubelets (kContainerStart).  `plan` must outlive the testbed.
  void injectFaults(fault::FaultPlan& plan);

  /// Issue a measured HTTP request from client `clientIndex` to `address`;
  /// its time_total lands in the recorder as a sample of `series` (a
  /// failure only counts), and the result is forwarded to `cb` if provided.
  void request(std::size_t clientIndex, Endpoint address,
               const std::string& series, HttpMethod method = HttpMethod::kGet,
               Bytes payload = Bytes{0}, Host::HttpCallback cb = nullptr);

  /// Issue a request shaped like catalogue entry `key` (method + payload).
  void requestCatalog(std::size_t clientIndex, const std::string& key,
                      Endpoint address, const std::string& series,
                      Host::HttpCallback cb = nullptr);

 private:
  TestbedOptions options_;
  Simulation sim_;
  std::unique_ptr<Network> net_;
  ServiceCatalog catalog_;
  metrics::Recorder recorder_;
  trace::TraceRecorder trace_;
  telemetry::MetricsRegistry telemetry_;
  std::unique_ptr<telemetry::SnapshotWriter> snapshotWriter_;
  std::unique_ptr<telemetry::SloWatchdog> watchdog_;
  // Client-side handles (nullptr when options.telemetry is off).
  telemetry::Histogram* clientHist_ = nullptr;
  telemetry::Counter* clientOk_ = nullptr;
  telemetry::Counter* clientError_ = nullptr;

  std::vector<std::unique_ptr<Host>> clients_;
  std::unique_ptr<Host> egs_;
  std::unique_ptr<Host> farEdgeHost_;
  std::unique_ptr<Host> cloud_;
  std::unique_ptr<openflow::OpenFlowSwitch> switch_;

  std::unique_ptr<container::Registry> publicRegistry_;
  std::unique_ptr<container::Registry> privateRegistry_;
  container::Registry* activeRegistry_ = nullptr;

  std::unique_ptr<container::LayerStore> egsStore_;
  std::unique_ptr<container::ContainerdRuntime> egsRuntime_;
  std::unique_ptr<container::ImagePuller> egsPuller_;
  std::unique_ptr<docker::DockerEngine> dockerEngine_;
  std::unique_ptr<k8s::K8sCluster> k8sCluster_;

  std::unique_ptr<container::LayerStore> farStore_;
  std::unique_ptr<container::ContainerdRuntime> farRuntime_;
  std::unique_ptr<container::ImagePuller> farPuller_;
  std::unique_ptr<docker::DockerEngine> farEngine_;

  std::unique_ptr<serverless::FaasRuntime> faasRuntime_;

  std::vector<std::unique_ptr<ClusterAdapter>> adapters_;
  DockerAdapter* dockerAdapter_ = nullptr;
  K8sAdapter* k8sAdapter_ = nullptr;
  DockerAdapter* farAdapter_ = nullptr;
  CloudAdapter* cloudAdapter_ = nullptr;
  ServerlessAdapter* serverlessAdapter_ = nullptr;

  std::unique_ptr<EdgeController> controller_;
};

}  // namespace edgesim::core
