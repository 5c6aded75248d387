// FaasRuntime: a WebAssembly-style serverless runtime on one edge node.
//
// The paper's future work (§VIII) proposes "side-by-side operation of
// containers and serverless applications" under transparent access, citing
// WebAssembly runtimes whose cold-start latency is far below containers'
// (Gackstatter et al. [7], Faasm [25], aWsm [24]).  This module models such
// a runtime with the same three-phase lifecycle as fig. 4 so it can slot
// into the controller's deployment pipeline:
//
//   Fetch    (~Pull):     download the Wasm module (small; a few MiB)
//   Deploy   (~Create):   compile/JIT the module, cache machine code
//   Activate (~Scale Up): instantiate an isolate and bind the port --
//                         milliseconds instead of hundreds of them
//
// Containers retain their advantages (arbitrary binaries, better isolation)
// -- a Wasm function reuses the AppProfile's request compute, but complex
// apps like TensorFlow Serving don't fit, mirroring reality.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "sim/simulation.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace edgesim::serverless {

struct FunctionProfile {
  Bytes moduleSize = 2_MiB;      // compiled Wasm artifact
  SimTime compileDelay = SimTime::millis(45);   // one-time JIT/AOT compile
  SimTime coldStartDelay = SimTime::millis(6);  // isolate instantiation
  SimTime requestCompute = SimTime::micros(400);
  double computeJitterSigma = 0.0;
  Bytes responseBytes = Bytes{1024};
};

struct FunctionSpec {
  std::string name;
  FunctionProfile profile;
};

struct FaasParams {
  /// Module repository round trip + bandwidth (source fetched from the
  /// cloud like an image pull, but tiny).
  SimTime repoRtt = SimTime::millis(80);
  BitRate repoBandwidth = BitRate{400u * 1000 * 1000};
  /// Idle instance eviction (scale-to-zero) -- the runtime's own policy;
  /// zero disables it (the controller can still deactivate explicitly).
  SimTime idleEviction = SimTime::zero();
};

class FaasRuntime {
 public:
  using Callback = std::function<void(Status)>;
  using ActivateCallback = std::function<void(Result<Endpoint>)>;

  FaasRuntime(Simulation& sim, Host& host, FaasParams params = {});

  /// Phase 1 (Fetch): download the module unless cached.
  void fetchModule(const FunctionSpec& spec, Callback cb);
  bool moduleCached(const std::string& name) const;

  /// Phase 2 (Deploy): compile the cached module; idempotent.
  void deployFunction(const FunctionSpec& spec, Callback cb);
  bool deployed(const std::string& name) const;

  /// Phase 3 (Activate): instantiate an isolate and bind its port.
  void activate(const std::string& name, ActivateCallback cb);
  /// Tear the isolate down (scale-to-zero); the compiled module stays.
  void deactivate(const std::string& name, Callback cb);
  /// Drop the compiled module + source (fig. 4 Remove/Delete analogue).
  void removeFunction(const std::string& name, Callback cb);

  std::vector<Endpoint> activeEndpoints(const std::string& name) const;

  Host& host() { return host_; }
  std::uint64_t coldStarts() const { return coldStarts_; }
  std::uint64_t evictions() const { return evictions_; }
  Bytes moduleCacheBytes() const;

  /// Called with a function's name when its isolate's port opens, at that
  /// moment.  One listener; nullptr detaches it.
  using PortListener = std::function<void(const std::string& name)>;
  void setPortListener(PortListener listener) {
    portListener_ = std::move(listener);
  }

 private:
  struct Function {
    FunctionSpec spec;
    bool fetched = false;
    bool compiled = false;
    std::uint16_t port = 0;  // 0 => no active isolate
    SimTime lastUsed;
    EventHandle evictionTimer;
  };

  void bindIsolate(Function& function);
  void armEviction(const std::string& name);

  Simulation& sim_;
  Host& host_;
  FaasParams params_;
  Rng rng_;
  std::uint16_t nextPort_ = 40000;
  std::map<std::string, Function> functions_;
  std::uint64_t coldStarts_ = 0;
  std::uint64_t evictions_ = 0;
  PortListener portListener_;
};

}  // namespace edgesim::serverless
