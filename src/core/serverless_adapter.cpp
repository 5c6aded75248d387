#include "core/serverless_adapter.hpp"

namespace edgesim::core {

ServerlessAdapter::ServerlessAdapter(Simulation& sim, std::string name,
                                     int distanceRank,
                                     serverless::FaasRuntime& runtime,
                                     SimTime mgmtRtt)
    : ClusterAdapter(std::move(name), distanceRank),
      sim_(sim),
      runtime_(runtime),
      mgmtRtt_(mgmtRtt) {
  // Ready instances are the function's active isolate: report each time
  // its port opens (functions are named after the service).
  runtime_.setPortListener(
      [this](const std::string& function) { readinessChanged(function); });
}

ServerlessAdapter::~ServerlessAdapter() { runtime_.setPortListener(nullptr); }

bool ServerlessAdapter::supportsService(const ServiceModel& service) {
  if (service.containers.empty()) return false;
  // Single lightweight HTTP handler only: no sidecars, bounded compute.
  if (service.containers.size() > 1) return false;
  return service.containers.front().app.requestCompute <= kMaxFunctionCompute;
}

serverless::FunctionSpec ServerlessAdapter::toFunctionSpec(
    const ServiceModel& service) {
  serverless::FunctionSpec spec;
  spec.name = service.uniqueName;
  const auto& app = service.containers.front().app;
  spec.profile.requestCompute = app.requestCompute;
  spec.profile.computeJitterSigma = app.computeJitterSigma;
  spec.profile.responseBytes = app.responseBytes;
  return spec;
}

Status ServerlessAdapter::checkSupported(const ServiceModel& service) const {
  if (!supportsService(service)) {
    return makeError(Errc::kFailedPrecondition,
                     service.uniqueName + " does not fit a Wasm function");
  }
  return Status();
}

ClusterView ServerlessAdapter::view(const ServiceModel& service) const {
  ClusterView view;
  view.name = name();
  view.distanceRank = distanceRank();
  view.readyInstances = readyInstances(service);
  view.imageCached = runtime_.moduleCached(service.uniqueName);
  view.serviceCreated = runtime_.deployed(service.uniqueName);
  view.freeCapacity = supportsService(service) ? 1000 : 0;
  return view;
}

std::vector<Endpoint> ServerlessAdapter::readyInstances(
    const ServiceModel& service) const {
  return runtime_.activeEndpoints(service.uniqueName);
}

void ServerlessAdapter::pullImages(const ServiceModel& service, Callback cb) {
  if (const Status status = checkSupported(service); !status.ok()) {
    sim_.schedule(SimTime::zero(), [cb, status] { cb(status); });
    return;
  }
  runtime_.fetchModule(toFunctionSpec(service), std::move(cb));
}

void ServerlessAdapter::createService(const ServiceModel& service,
                                      Callback cb) {
  if (const Status status = checkSupported(service); !status.ok()) {
    sim_.schedule(SimTime::zero(), [cb, status] { cb(status); });
    return;
  }
  runtime_.deployFunction(toFunctionSpec(service), std::move(cb));
}

void ServerlessAdapter::scaleUp(const ServiceModel& service, Callback cb) {
  runtime_.activate(service.uniqueName, [cb](Result<Endpoint> result) {
    if (result.ok()) {
      cb(Status());
    } else {
      cb(result.error());
    }
  });
}

void ServerlessAdapter::scaleDown(const ServiceModel& service, Callback cb) {
  runtime_.deactivate(service.uniqueName, std::move(cb));
}

void ServerlessAdapter::removeService(const ServiceModel& service,
                                      Callback cb) {
  runtime_.removeFunction(service.uniqueName, std::move(cb));
}

void ServerlessAdapter::deleteImages(const ServiceModel& service,
                                     Callback cb) {
  // Modules are removed together with the function (removeService).
  runtime_.removeFunction(service.uniqueName, std::move(cb));
}

void ServerlessAdapter::probeInstance(Endpoint instance, ProbeCallback cb) {
  sim_.schedule(mgmtRtt_, [this, instance, cb] {
    cb(runtime_.host().ip() == instance.ip &&
       runtime_.host().listening(instance.port));
  });
}

}  // namespace edgesim::core
