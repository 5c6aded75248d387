#include "core/testbed.hpp"

#include "util/strings.hpp"

namespace edgesim::core {

Testbed::Testbed(TestbedOptions options)
    : options_(options), sim_(options.seed) {
  trace_.setEnabled(options_.tracing);
  if (options_.telemetry) {
    clientHist_ = &telemetry_.histogram("edgesim_client_request_seconds");
    clientOk_ = &telemetry_.counter("edgesim_client_requests_total",
                                    {{"outcome", "ok"}});
    clientError_ = &telemetry_.counter("edgesim_client_requests_total",
                                       {{"outcome", "error"}});
  }
  net_ = std::make_unique<Network>(sim_);

  // ---- hosts ---------------------------------------------------------------
  for (std::size_t i = 0; i < options_.clientCount; ++i) {
    clients_.push_back(std::make_unique<Host>(
        *net_, strprintf("rpi-%02zu", i),
        clientAddress(i),
        Mac(0x020000000000ULL + i)));
  }
  egs_ = std::make_unique<Host>(*net_, "egs", Ipv4(10, 0, 1, 1), Mac(0x10));
  cloud_ = std::make_unique<Host>(*net_, "cloud", Ipv4(198, 51, 100, 1),
                                  Mac(0xC0));
  switch_ = std::make_unique<openflow::OpenFlowSwitch>(*net_, "ovs");
  switch_->setTelemetry(options_.telemetry ? &telemetry_ : nullptr, &trace_);

  // ---- links ---------------------------------------------------------------
  SwitchTopology topo;
  for (auto& client : clients_) {
    const auto ports = net_->connect(*client, *switch_, options_.clientLatency,
                                     options_.clientBandwidth);
    topo.hostPorts[client->ip()] = ports.portB;
  }
  const auto egsPorts = net_->connect(*switch_, *egs_, options_.egsLatency,
                                      options_.egsBandwidth);
  topo.hostPorts[egs_->ip()] = egsPorts.portA;
  const auto cloudPorts = net_->connect(*switch_, *cloud_,
                                        options_.cloudLatency,
                                        options_.cloudBandwidth);
  topo.hostPorts[cloud_->ip()] = cloudPorts.portA;
  topo.uplinkPort = cloudPorts.portA;

  // ---- registries ------------------------------------------------------------
  publicRegistry_ = std::make_unique<container::Registry>(
      "docker-hub", container::publicRegistryProfile());
  privateRegistry_ = std::make_unique<container::Registry>(
      "private-registry", container::privateRegistryProfile());
  catalog_.publishImages(*publicRegistry_);
  catalog_.publishImages(*privateRegistry_);
  activeRegistry_ =
      options_.privateRegistry ? privateRegistry_.get() : publicRegistry_.get();

  // ---- EGS: shared containerd under Docker AND Kubernetes -------------------
  egsStore_ = std::make_unique<container::LayerStore>();
  egsRuntime_ = std::make_unique<container::ContainerdRuntime>(
      sim_, *egs_, *egsStore_);
  egsPuller_ = std::make_unique<container::ImagePuller>(sim_, *egsStore_);
  dockerEngine_ = std::make_unique<docker::DockerEngine>(
      sim_, *egsRuntime_, *egsPuller_, activeRegistry_);

  if (options_.clusterMode == ClusterMode::kDockerOnly ||
      options_.clusterMode == ClusterMode::kBoth) {
    auto adapter = std::make_unique<DockerAdapter>(
        sim_, "docker-egs", /*distanceRank=*/0, *dockerEngine_);
    dockerAdapter_ = adapter.get();
    adapters_.push_back(std::move(adapter));
  }
  if (options_.serverlessEdge ||
      options_.clusterMode == ClusterMode::kServerlessOnly) {
    faasRuntime_ = std::make_unique<serverless::FaasRuntime>(sim_, *egs_);
    auto adapter = std::make_unique<ServerlessAdapter>(
        sim_, "faas-egs", /*distanceRank=*/0, *faasRuntime_);
    serverlessAdapter_ = adapter.get();
    adapters_.push_back(std::move(adapter));
  }
  if (options_.clusterMode == ClusterMode::kK8sOnly ||
      options_.clusterMode == ClusterMode::kBoth) {
    k8s::NodeHandle node;
    node.name = "egs";
    node.host = egs_.get();
    node.runtime = egsRuntime_.get();
    node.puller = egsPuller_.get();
    node.registry = activeRegistry_;
    k8sCluster_ = std::make_unique<k8s::K8sCluster>(
        sim_, options_.k8sParams, std::vector<k8s::NodeHandle>{node});
    auto adapter = std::make_unique<K8sAdapter>(
        sim_, "k8s-egs", /*distanceRank=*/0, *k8sCluster_,
        std::vector<k8s::NodeHandle>{node});
    k8sAdapter_ = adapter.get();
    adapters_.push_back(std::move(adapter));
  }

  // ---- optional far edge (fig. 3: without-waiting scenarios) ----------------
  if (options_.farEdge) {
    farEdgeHost_ = std::make_unique<Host>(*net_, "far-edge",
                                          Ipv4(10, 0, 3, 1), Mac(0x20));
    const auto farPorts = net_->connect(*switch_, *farEdgeHost_,
                                        options_.farEdgeLatency,
                                        options_.clientBandwidth);
    topo.hostPorts[farEdgeHost_->ip()] = farPorts.portA;
    farStore_ = std::make_unique<container::LayerStore>();
    farRuntime_ = std::make_unique<container::ContainerdRuntime>(
        sim_, *farEdgeHost_, *farStore_);
    farPuller_ = std::make_unique<container::ImagePuller>(sim_, *farStore_);
    farEngine_ = std::make_unique<docker::DockerEngine>(
        sim_, *farRuntime_, *farPuller_, activeRegistry_);
    auto adapter = std::make_unique<DockerAdapter>(
        sim_, "docker-far", /*distanceRank=*/1, *farEngine_);
    farAdapter_ = adapter.get();
    adapters_.push_back(std::move(adapter));
  }

  // ---- cloud -----------------------------------------------------------------
  auto cloudAdapter = std::make_unique<CloudAdapter>(
      sim_, "cloud", /*distanceRank=*/100, *cloud_, catalog_.profiles());
  cloudAdapter_ = cloudAdapter.get();
  adapters_.push_back(std::move(cloudAdapter));

  // ---- controller --------------------------------------------------------------
  std::vector<ClusterAdapter*> adapterPtrs;
  for (const auto& adapter : adapters_) adapterPtrs.push_back(adapter.get());
  controller_ = std::make_unique<EdgeController>(
      sim_, options_.controller, adapterPtrs, catalog_.profiles(), &recorder_,
      &trace_, options_.telemetry ? &telemetry_ : nullptr);
  controller_->attachSwitch(*switch_, std::move(topo));

  // ---- telemetry export ------------------------------------------------------
  if (options_.snapshotPeriod > SimTime::zero()) {
    telemetry::SnapshotWriterOptions writerOptions;
    writerOptions.dir = options_.snapshotDir;
    writerOptions.period = options_.snapshotPeriod;
    snapshotWriter_ = std::make_unique<telemetry::SnapshotWriter>(
        sim_, telemetry_, writerOptions);
    snapshotWriter_->start();
  }
}

Testbed::~Testbed() = default;

telemetry::SloWatchdog& Testbed::watchdog() {
  if (watchdog_ == nullptr) {
    watchdog_ = std::make_unique<telemetry::SloWatchdog>(
        sim_, telemetry_, options_.tracing ? &trace_ : nullptr);
    controller_->setSloWatchdog(watchdog_.get());
  }
  return *watchdog_;
}

Result<const ServiceModel*> Testbed::registerCatalogService(
    const std::string& key, Endpoint address) {
  const CatalogEntry& entry = catalog_.entry(key);
  return controller_->registerService(entry.yaml, address, key);
}

void Testbed::warmImageCache(const std::string& key) {
  catalog_.seedImages(key, *egsStore_);
  if (farStore_ != nullptr) catalog_.seedImages(key, *farStore_);
}

void Testbed::injectFaults(fault::FaultPlan& plan) {
  for (auto& adapter : adapters_) adapter->setFaultPlan(&plan);
  if (switch_ != nullptr) switch_->setFaultPlan(&plan);
  if (egsPuller_ != nullptr) egsPuller_->setFaultPlan(&plan, "egs");
  if (farPuller_ != nullptr) farPuller_->setFaultPlan(&plan, "far-edge");
  if (dockerEngine_ != nullptr) dockerEngine_->setFaultPlan(&plan);
  if (farEngine_ != nullptr) farEngine_->setFaultPlan(&plan);
  if (k8sCluster_ != nullptr) {
    for (k8s::Kubelet* kubelet : k8sCluster_->kubelets()) {
      kubelet->setFaultPlan(&plan);
    }
  }
}

void Testbed::request(std::size_t clientIndex, Endpoint address,
                      const std::string& series, HttpMethod method,
                      Bytes payload, Host::HttpCallback cb) {
  Host& client = *clients_.at(clientIndex);
  HttpRequest req;
  req.method = method;
  req.payload = payload;
  const Ipv4 clientIp = client.ip();
  client.httpRequest(address, req,
                     [this, series, clientIp, address,
                      cb = std::move(cb)](Result<HttpExchange> r) {
                       if (r.ok()) {
                         const double total =
                             r.value().timings.timeTotal().toSeconds();
                         if (clientHist_ != nullptr) {
                           clientOk_->add();
                           clientHist_->observe(total);
                         }
                         recorder_.addSample(series, total);
                         // Join the client-side measurement with the
                         // controller-side trace: the root "request" span
                         // covers exactly timecurl's time_total.
                         trace_.clientRequestDone(
                             clientIp, address, r.value().timings.start,
                             r.value().timings.responseDone, /*success=*/true,
                             series);
                       } else {
                         if (clientError_ != nullptr) clientError_->add();
                         recorder_.addFailure();
                         trace_.instant(0, "request-failed", "client",
                                        sim_.now(),
                                        {{"series", series},
                                         {"client", clientIp},
                                         {"error", r.error()}});
                       }
                       if (cb) cb(std::move(r));
                     });
}

void Testbed::requestCatalog(std::size_t clientIndex, const std::string& key,
                             Endpoint address, const std::string& series,
                             Host::HttpCallback cb) {
  const CatalogEntry& entry = catalog_.entry(key);
  request(clientIndex, address, series, entry.requestMethod,
          entry.requestPayload, std::move(cb));
}

}  // namespace edgesim::core
