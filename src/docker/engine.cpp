#include "docker/engine.hpp"

#include "util/log.hpp"

namespace edgesim::docker {

DockerEngine::DockerEngine(Simulation& sim,
                           container::ContainerdRuntime& runtime,
                           container::ImagePuller& puller,
                           const container::Registry* registry,
                           EngineParams params)
    : sim_(sim),
      runtime_(runtime),
      puller_(puller),
      registry_(registry),
      params_(params) {}

void DockerEngine::afterApi(std::function<void()> fn) {
  sim_.schedule(params_.apiLatency, std::move(fn));
}

std::optional<fault::InjectedFault> DockerEngine::checkFault(
    fault::FaultSite site) {
  if (faults_ == nullptr) return std::nullopt;
  auto injected = faults_->evaluate(site, runtime_.host().name());
  // Stall-only faults on daemon calls are folded into the failure path's
  // stall; a non-failing trigger is simply ignored here (the API latency
  // already models the call's base cost).
  if (injected.has_value() && !injected->fail) return std::nullopt;
  return injected;
}

void DockerEngine::pull(const ImageRef& ref, Callback cb) {
  ES_ASSERT(cb != nullptr);
  afterApi([this, ref, cb = std::move(cb)] {
    if (registry_ == nullptr) {
      if (runtime_.store().hasImage(ref)) {
        cb(Status());
      } else {
        cb(makeError(Errc::kUnavailable, "no registry configured"));
      }
      return;
    }
    puller_.pull(*registry_, ref, std::move(cb));
  });
}

void DockerEngine::createContainer(const ContainerSpec& spec,
                                   CreateCallback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkFault(fault::FaultSite::kContainerCreate)) {
    sim_.schedule(params_.apiLatency + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  afterApi([this, spec, cb = std::move(cb)] {
    // containerd's create latency applies before the id is returned.
    sim_.schedule(runtime_.params().createLatency, [this, spec, cb] {
      cb(runtime_.create(spec));
    });
  });
}

void DockerEngine::startContainer(ContainerId id, Callback cb) {
  ES_ASSERT(cb != nullptr);
  if (auto injected = checkFault(fault::FaultSite::kContainerStart)) {
    sim_.schedule(params_.apiLatency + injected->stall,
                  [cb, error = injected->error] { cb(error); });
    return;
  }
  afterApi([this, id, cb = std::move(cb)]() mutable {
    const Status status = runtime_.start(id, cb);
    if (!status.ok()) {
      // start() rejected synchronously; surface asynchronously for a
      // uniform callback contract.
      sim_.schedule(SimTime::zero(), [cb, status] { cb(status); });
    }
  });
}

void DockerEngine::stopContainer(ContainerId id, Callback cb) {
  ES_ASSERT(cb != nullptr);
  afterApi([this, id, cb = std::move(cb)]() mutable {
    const Status status = runtime_.stop(id, cb);
    if (!status.ok()) {
      sim_.schedule(SimTime::zero(), [cb, status] { cb(status); });
    }
  });
}

void DockerEngine::removeContainer(ContainerId id, Callback cb) {
  ES_ASSERT(cb != nullptr);
  afterApi([this, id, cb = std::move(cb)] {
    sim_.schedule(runtime_.params().removeLatency,
                  [this, id, cb] { cb(runtime_.remove(id)); });
  });
}

void DockerEngine::removeImage(const ImageRef& ref, Callback cb) {
  ES_ASSERT(cb != nullptr);
  afterApi([this, ref, cb = std::move(cb)] {
    // Refuse while containers still use the image (as docker rmi does).
    for (const auto* info : runtime_.list()) {
      if (info->spec.image == ref &&
          info->state != container::ContainerState::kRemoved) {
        cb(makeError(Errc::kConflict, "image in use by container"));
        return;
      }
    }
    if (!runtime_.store().removeImage(ref)) {
      cb(makeError(Errc::kNotFound, "no such image"));
      return;
    }
    cb(Status());
  });
}

std::vector<const ContainerInfo*> DockerEngine::listContainers(
    const std::map<std::string, std::string>& labelSelector) const {
  return runtime_.list(labelSelector);
}

const ContainerInfo* DockerEngine::inspect(ContainerId id) const {
  return runtime_.find(id);
}

Result<Endpoint> DockerEngine::endpointOf(ContainerId id) const {
  return runtime_.endpointOf(id);
}

bool DockerEngine::imageCached(const ImageRef& ref) const {
  return runtime_.store().hasImage(ref);
}

}  // namespace edgesim::docker
