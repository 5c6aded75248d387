// controller_config -- driving the controller entirely from a configuration
// file, like the paper's deployment ("the concrete scheduler implementation
// can be defined in the controller's configuration and will be dynamically
// loaded").
//
// Pass a config file path, or run without arguments to use the built-in
// sample below.
//
//   $ ./controller_config [edge.conf]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/testbed.hpp"

using namespace edgesim;
using namespace edgesim::core;
using namespace edgesim::timeliterals;

namespace {

constexpr const char* kSampleConfig = R"(# transparent-edge controller configuration
scheduler = latency-first          # Global Scheduler (fig. 6)
instance_policy = client-hash      # Local Scheduler at request time
switch_idle_timeout_ms = 5000      # short switch flows (§V)
memory_idle_timeout_ms = 60000     # longer controller memory
scale_down_idle = true
remove_idle_after_ms = 300000      # Remove phase after 5 min idle (fig. 4)
delete_images_on_remove = false
port_poll_interval_ms = 50         # readiness polling (§VI)
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kSampleConfig;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  const auto parsed = Config::parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 parsed.error().toString().c_str());
    return 1;
  }
  const Config& config = parsed.value();
  std::printf("loaded configuration:\n");
  for (const auto& [key, value] : config.entries()) {
    std::printf("  %-28s = %s\n", key.c_str(), value.c_str());
  }

  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.farEdge = true;
  auto controllerOptions = ControllerOptions::fromConfig(config);
  if (!controllerOptions.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 controllerOptions.error().toString().c_str());
    return 1;
  }
  options.controller = std::move(controllerOptions).value();
  Testbed bed(options);
  std::printf("controller scheduler: %s\n",
              bed.controller().scheduler().name());

  const Endpoint address(Ipv4(203, 0, 113, 50), 80);
  if (!bed.registerCatalogService("nginx", address).ok()) return 1;
  bed.warmImageCache("nginx");

  // Exercise the configured behaviour: a far instance runs, so the
  // latency-first scheduler answers from it and deploys near in parallel.
  const ServiceModelPtr model = bed.controller().serviceAt(address);
  bed.controller().dispatcher().ensureReady(model, *bed.farEdgeAdapter(),
                                            [](Result<Endpoint>) {});
  bed.sim().runUntil(5_s);

  bed.requestCatalog(0, "nginx", address, "first",
                     [](Result<HttpExchange> r) {
                       if (r.ok()) {
                         std::printf("first request: %.4f s\n",
                                     r.value().timings.timeTotal().toSeconds());
                       }
                     });
  bed.sim().runUntil(20_s);
  std::printf("background deployments: %llu, scale-downs so far: %llu\n",
              static_cast<unsigned long long>(
                  bed.controller().dispatcher().backgroundDeployments()),
              static_cast<unsigned long long>(bed.controller().scaleDowns()));
  return 0;
}
