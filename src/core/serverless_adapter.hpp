// ServerlessAdapter: transparent edge access backed by a Wasm-style FaaS
// runtime instead of a container cluster (the paper's §VIII future work).
//
// The fig. 4 phases map onto the function lifecycle: Pull -> Fetch module,
// Create -> compile, Scale Up -> activate an isolate.  Lightweight HTTP
// services (Asm, Nginx-shaped workloads) fit; heavyweight apps like
// TensorFlow Serving do not run as a small Wasm function, so services whose
// per-request compute exceeds `maxFunctionCompute` are refused -- mirroring
// the container-vs-serverless flexibility trade-off the paper discusses.
#pragma once

#include "core/cluster_adapter.hpp"
#include "serverless/faas_runtime.hpp"

namespace edgesim::core {

class ServerlessAdapter final : public ClusterAdapter {
 public:
  ServerlessAdapter(Simulation& sim, std::string name, int distanceRank,
                    serverless::FaasRuntime& runtime,
                    SimTime mgmtRtt = SimTime::millis(1));
  ~ServerlessAdapter() override;

  /// Services whose request compute exceeds this do not fit in a function.
  static constexpr SimTime kMaxFunctionCompute = SimTime::millis(50);

  static bool supportsService(const ServiceModel& service);
  static serverless::FunctionSpec toFunctionSpec(const ServiceModel& service);

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

  serverless::FaasRuntime& runtime() { return runtime_; }

 private:
  Status checkSupported(const ServiceModel& service) const;

  Simulation& sim_;
  serverless::FaasRuntime& runtime_;
  SimTime mgmtRtt_;
};

}  // namespace edgesim::core
