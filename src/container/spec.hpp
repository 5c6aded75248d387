// Container specifications and application behaviour profiles.
//
// An AppProfile captures what the evaluation needs to know about the
// process inside a container: how long it takes from exec() until the
// service port is bound (e.g. TensorFlow Serving loading ResNet50), how
// much compute a request costs, and how big the response is.  Table I's
// four services are instances of this profile (see core/service_catalog).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "sim/time.hpp"

namespace edgesim::container {

struct AppProfile {
  /// exec() -> service port bound and answering (includes app init, e.g.
  /// model loading).  This is what the controller's port polling waits for.
  SimTime startupDelay;
  /// Median compute time per request once running.
  SimTime requestCompute;
  /// Lognormal sigma applied to requestCompute (0 => deterministic).
  double computeJitterSigma = 0.0;
  /// Response body size.
  Bytes responseBytes = Bytes{1024};
  /// False for helper containers that serve no port (e.g. the Python
  /// env-writer next to Nginx in Table I's fourth service).
  bool exposesPort = true;
  /// Failure injection: probability that the process exits immediately
  /// after start instead of binding its port.
  double crashOnStartProbability = 0.0;

  bool operator==(const AppProfile&) const = default;
};

struct ContainerSpec {
  std::string name;
  ImageRef image;
  std::uint16_t containerPort = 80;
  std::map<std::string, std::string> labels;
  std::map<std::string, std::string> env;
  /// hostPath -> containerPath mounts (supported by the paper's controller
  /// for Docker deployments, §V).
  std::vector<std::pair<std::string, std::string>> volumeMounts;
  AppProfile app;

  bool operator==(const ContainerSpec&) const = default;
};

}  // namespace edgesim::container
