#include "container/runtime.hpp"

#include <cmath>

#include "util/log.hpp"

namespace edgesim::container {

const char* containerStateName(ContainerState state) {
  switch (state) {
    case ContainerState::kCreated: return "created";
    case ContainerState::kStarting: return "starting";
    case ContainerState::kRunning: return "running";
    case ContainerState::kExited: return "exited";
    case ContainerState::kRemoved: return "removed";
  }
  return "?";
}

ContainerdRuntime::ContainerdRuntime(Simulation& sim, Host& host,
                                     LayerStore& store, RuntimeParams params)
    : sim_(sim),
      host_(host),
      store_(store),
      params_(params),
      rng_(sim.rng().fork(0xC0471A1EULL)) {}

SimTime ContainerdRuntime::jittered(SimTime base) {
  if (params_.latencyJitterSigma <= 0.0) return base;
  const double factor = rng_.lognormal(0.0, params_.latencyJitterSigma);
  return base.scaled(factor);
}

Result<ContainerId> ContainerdRuntime::create(const ContainerSpec& spec) {
  if (!store_.hasImage(spec.image)) {
    return makeError(Errc::kFailedPrecondition,
                     "image not present: " + spec.image.toString());
  }
  const ContainerId id = nextId_++;
  ContainerInfo info;
  info.id = id;
  info.spec = spec;
  info.state = ContainerState::kCreated;
  info.createdAt = sim_.now();
  info.readyAt = SimTime::max();
  containers_.emplace(id, std::move(info));
  ES_DEBUG("containerd", "%s: created container %llu (%s)",
           host_.name().c_str(), static_cast<unsigned long long>(id),
           spec.image.toString().c_str());
  return id;
}

Status ContainerdRuntime::start(ContainerId id, Callback cb) {
  ES_ASSERT(cb != nullptr);
  const auto it = containers_.find(id);
  if (it == containers_.end()) {
    return makeError(Errc::kNotFound, "no such container");
  }
  ContainerInfo& info = it->second;
  if (info.state != ContainerState::kCreated &&
      info.state != ContainerState::kExited) {
    return makeError(Errc::kFailedPrecondition,
                     std::string("cannot start container in state ") +
                         containerStateName(info.state));
  }
  info.state = ContainerState::kStarting;
  const SimTime startDelay = jittered(params_.startLatency);
  sim_.schedule(startDelay, [this, id, cb = std::move(cb)] {
    auto cit = containers_.find(id);
    if (cit == containers_.end() ||
        cit->second.state != ContainerState::kStarting) {
      cb(makeError(Errc::kConflict, "container vanished during start"));
      return;
    }
    ContainerInfo& container = cit->second;
    container.state = ContainerState::kRunning;
    container.startedAt = sim_.now();
    ++started_;

    if (rng_.chance(container.spec.app.crashOnStartProbability)) {
      // Process exits immediately; port never binds.
      container.state = ContainerState::kExited;
      ES_DEBUG("containerd", "%s: container %llu crashed on start",
               host_.name().c_str(), static_cast<unsigned long long>(id));
      cb(Status());  // the start syscall itself succeeded
      return;
    }

    if (container.spec.app.exposesPort) {
      const SimTime appDelay = container.spec.app.startupDelay;
      sim_.schedule(appDelay, [this, id] { bindPort(id); });
    } else {
      container.readyAt = sim_.now();  // helper container: ready == running
    }
    cb(Status());
  });
  return Status();
}

void ContainerdRuntime::bindPort(ContainerId id) {
  const auto it = containers_.find(id);
  if (it == containers_.end() || it->second.state != ContainerState::kRunning) {
    return;  // stopped/removed while the app was initialising
  }
  ContainerInfo& info = it->second;
  info.hostPort = nextHostPort_++;
  info.readyAt = sim_.now();

  const AppProfile app = info.spec.app;
  // Fork a per-container RNG so request jitter does not perturb other
  // containers' sequences.
  auto requestRng = std::make_shared<Rng>(rng_.fork(id));
  host_.listen(info.hostPort, [this, id, app, requestRng](
                                  const HttpRequest&, HttpRespond respond) {
    SimTime compute = app.requestCompute;
    if (app.computeJitterSigma > 0.0) {
      compute = compute.scaled(requestRng->lognormal(0.0, app.computeJitterSigma));
    }
    // Single-worker queue: queue behind the in-flight request, if any.
    SimTime respondAt = sim_.now() + compute;
    if (const auto cit = containers_.find(id); cit != containers_.end()) {
      ++cit->second.requestsServed;
      const SimTime start = std::max(sim_.now(), cit->second.busyUntil);
      respondAt = start + compute;
      cit->second.busyUntil = respondAt;
    }
    sim_.scheduleAt(respondAt, [app, respond = std::move(respond)] {
      HttpResponse response;
      response.status = 200;
      response.payload = app.responseBytes;
      respond(response);
    });
  });
  ES_DEBUG("containerd", "%s: container %llu ready on port %u",
           host_.name().c_str(), static_cast<unsigned long long>(id),
           info.hostPort);
  if (portListener_) portListener_(id);
}

Status ContainerdRuntime::stop(ContainerId id, Callback cb) {
  ES_ASSERT(cb != nullptr);
  const auto it = containers_.find(id);
  if (it == containers_.end()) {
    return makeError(Errc::kNotFound, "no such container");
  }
  ContainerInfo& info = it->second;
  if (info.state != ContainerState::kRunning &&
      info.state != ContainerState::kStarting) {
    return makeError(Errc::kFailedPrecondition, "container not running");
  }
  if (info.hostPort != 0) {
    host_.closeListener(info.hostPort);
    info.hostPort = 0;
  }
  info.state = ContainerState::kExited;
  info.readyAt = SimTime::max();
  sim_.schedule(jittered(params_.stopLatency),
                [cb = std::move(cb)] { cb(Status()); });
  return Status();
}

Status ContainerdRuntime::remove(ContainerId id) {
  const auto it = containers_.find(id);
  if (it == containers_.end()) {
    return makeError(Errc::kNotFound, "no such container");
  }
  if (it->second.state == ContainerState::kRunning ||
      it->second.state == ContainerState::kStarting) {
    return makeError(Errc::kFailedPrecondition,
                     "stop the container before removing it");
  }
  if (it->second.hostPort != 0) host_.closeListener(it->second.hostPort);
  containers_.erase(it);
  return Status();
}

const ContainerInfo* ContainerdRuntime::find(ContainerId id) const {
  const auto it = containers_.find(id);
  return it == containers_.end() ? nullptr : &it->second;
}

std::vector<const ContainerInfo*> ContainerdRuntime::list(
    const std::map<std::string, std::string>& selector) const {
  std::vector<const ContainerInfo*> out;
  for (const auto& [id, info] : containers_) {
    bool matches = true;
    for (const auto& [key, value] : selector) {
      const auto lit = info.spec.labels.find(key);
      if (lit == info.spec.labels.end() || lit->second != value) {
        matches = false;
        break;
      }
    }
    if (matches) out.push_back(&info);
  }
  return out;
}

Result<Endpoint> ContainerdRuntime::endpointOf(ContainerId id) const {
  const ContainerInfo* info = find(id);
  if (info == nullptr) return makeError(Errc::kNotFound, "no such container");
  if (info->state != ContainerState::kRunning || info->hostPort == 0) {
    return makeError(Errc::kFailedPrecondition, "container not serving");
  }
  return Endpoint(host_.ip(), info->hostPort);
}

}  // namespace edgesim::container
