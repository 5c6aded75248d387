#include "serverless/faas_runtime.hpp"

#include "util/log.hpp"

namespace edgesim::serverless {

FaasRuntime::FaasRuntime(Simulation& sim, Host& host, FaasParams params)
    : sim_(sim), host_(host), params_(params), rng_(sim.rng().fork(0xFAA5)) {}

void FaasRuntime::fetchModule(const FunctionSpec& spec, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto& function = functions_[spec.name];
  if (function.spec.name.empty()) function.spec = spec;
  if (function.fetched) {
    sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
    return;
  }
  const SimTime transfer = SimTime::nanos(
      params_.repoBandwidth.transmissionNanos(spec.profile.moduleSize));
  sim_.schedule(params_.repoRtt + transfer, [this, name = spec.name, cb] {
    functions_[name].fetched = true;
    cb(Status());
  });
}

bool FaasRuntime::moduleCached(const std::string& name) const {
  const auto it = functions_.find(name);
  return it != functions_.end() && it->second.fetched;
}

void FaasRuntime::deployFunction(const FunctionSpec& spec, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto& function = functions_[spec.name];
  if (function.spec.name.empty()) function.spec = spec;
  if (!function.fetched) {
    sim_.schedule(SimTime::zero(), [cb] {
      cb(makeError(Errc::kFailedPrecondition, "module not fetched"));
    });
    return;
  }
  if (function.compiled) {
    sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
    return;
  }
  sim_.schedule(spec.profile.compileDelay, [this, name = spec.name, cb] {
    functions_[name].compiled = true;
    cb(Status());
  });
}

bool FaasRuntime::deployed(const std::string& name) const {
  const auto it = functions_.find(name);
  return it != functions_.end() && it->second.compiled;
}

void FaasRuntime::activate(const std::string& name, ActivateCallback cb) {
  ES_ASSERT(cb != nullptr);
  const auto it = functions_.find(name);
  if (it == functions_.end() || !it->second.compiled) {
    sim_.schedule(SimTime::zero(), [cb] {
      cb(makeError(Errc::kFailedPrecondition, "function not deployed"));
    });
    return;
  }
  if (it->second.port != 0) {
    const Endpoint endpoint(host_.ip(), it->second.port);
    sim_.schedule(SimTime::zero(), [cb, endpoint] { cb(endpoint); });
    return;
  }
  ++coldStarts_;
  sim_.schedule(it->second.spec.profile.coldStartDelay, [this, name, cb] {
    auto fit = functions_.find(name);
    if (fit == functions_.end() || !fit->second.compiled) {
      cb(makeError(Errc::kConflict, "function removed during activation"));
      return;
    }
    bindIsolate(fit->second);
    cb(Endpoint(host_.ip(), fit->second.port));
  });
}

void FaasRuntime::bindIsolate(Function& function) {
  function.port = nextPort_++;
  function.lastUsed = sim_.now();
  const FunctionProfile profile = function.spec.profile;
  const std::string name = function.spec.name;
  auto requestRng = std::make_shared<Rng>(rng_.fork(function.port));
  host_.listen(function.port, [this, profile, name, requestRng](
                                  const HttpRequest&, HttpRespond respond) {
    auto fit = functions_.find(name);
    if (fit != functions_.end()) {
      fit->second.lastUsed = sim_.now();
      armEviction(name);
    }
    SimTime compute = profile.requestCompute;
    if (profile.computeJitterSigma > 0.0) {
      compute =
          compute.scaled(requestRng->lognormal(0.0, profile.computeJitterSigma));
    }
    sim_.schedule(compute, [profile, respond = std::move(respond)] {
      HttpResponse response;
      response.status = 200;
      response.payload = profile.responseBytes;
      respond(response);
    });
  });
  armEviction(name);
  ES_DEBUG("faas", "%s: isolate for %s active on port %u",
           host_.name().c_str(), name.c_str(), function.port);
  if (portListener_) portListener_(name);
}

void FaasRuntime::armEviction(const std::string& name) {
  if (params_.idleEviction <= SimTime::zero()) return;
  auto it = functions_.find(name);
  if (it == functions_.end() || it->second.port == 0) return;
  it->second.evictionTimer.cancel();
  it->second.evictionTimer =
      sim_.schedule(params_.idleEviction, [this, name] {
        auto fit = functions_.find(name);
        if (fit == functions_.end() || fit->second.port == 0) return;
        if (sim_.now() - fit->second.lastUsed < params_.idleEviction) return;
        ++evictions_;
        host_.closeListener(fit->second.port);
        fit->second.port = 0;
        ES_DEBUG("faas", "%s: evicted idle isolate %s", host_.name().c_str(),
                 name.c_str());
      });
}

void FaasRuntime::deactivate(const std::string& name, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto it = functions_.find(name);
  if (it != functions_.end() && it->second.port != 0) {
    it->second.evictionTimer.cancel();
    host_.closeListener(it->second.port);
    it->second.port = 0;
  }
  sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
}

void FaasRuntime::removeFunction(const std::string& name, Callback cb) {
  ES_ASSERT(cb != nullptr);
  auto it = functions_.find(name);
  if (it != functions_.end()) {
    it->second.evictionTimer.cancel();
    if (it->second.port != 0) host_.closeListener(it->second.port);
    functions_.erase(it);
  }
  sim_.schedule(SimTime::zero(), [cb] { cb(Status()); });
}

std::vector<Endpoint> FaasRuntime::activeEndpoints(
    const std::string& name) const {
  const auto it = functions_.find(name);
  if (it == functions_.end() || it->second.port == 0) return {};
  return {Endpoint(host_.ip(), it->second.port)};
}

Bytes FaasRuntime::moduleCacheBytes() const {
  Bytes total;
  for (const auto& [name, function] : functions_) {
    if (function.fetched) total += function.spec.profile.moduleSize;
  }
  return total;
}

}  // namespace edgesim::serverless
