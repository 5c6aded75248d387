// Unit tests for the EdgeController: service registration through YAML,
// options/config parsing, switch attachment and background flows,
// packet-in handling (registered vs unregistered, duplicate SYNs),
// flow installation shape, FlowMemory-driven scale-down, and multi-switch
// attachment.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "util/rng.hpp"

namespace edgesim::core {
namespace {

using namespace timeliterals;

const Endpoint kNginxAddr{Ipv4(203, 0, 113, 10), 80};

TEST(ControllerOptionsTest, FromConfig) {
  const auto parsed = Config::parse(R"(
scheduler = latency-first
switch_idle_timeout_ms = 2500
memory_idle_timeout_ms = 90000
scale_down_idle = false
port_poll_interval_ms = 25
local_scheduler = my-local
)");
  ASSERT_TRUE(parsed.ok());
  const auto result = ControllerOptions::fromConfig(parsed.value());
  ASSERT_TRUE(result.ok()) << result.error().toString();
  const ControllerOptions& options = result.value();
  EXPECT_EQ(options.scheduler, "latency-first");
  EXPECT_EQ(options.switchIdleTimeout, 2500_ms);
  EXPECT_EQ(options.memoryIdleTimeout, 90_s);
  EXPECT_FALSE(options.scaleDownIdleServices);
  EXPECT_EQ(options.portPollInterval, 25_ms);
  EXPECT_EQ(options.localScheduler, "my-local");
}

TEST(ControllerOptionsTest, DefaultsSurviveEmptyConfig) {
  const auto result = ControllerOptions::fromConfig(Config());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().scheduler, "proximity");
  EXPECT_TRUE(result.value().scaleDownIdleServices);
}

TEST(ControllerOptionsTest, RejectsRemovedKeysAndBadValuesByName) {
  // The threaded front-end's keys are gone: a config that still sets them
  // would otherwise run single-threaded without a word.
  for (const char* removed : {"workers", "flow_shards",
                              "overload_lane_queue_capacity",
                              "overload_shed_policy"}) {
    Config config;
    config.set(removed, "4");
    const auto result = ControllerOptions::fromConfig(config);
    ASSERT_FALSE(result.ok()) << removed;
    EXPECT_EQ(result.error().code, Errc::kInvalidArgument);
    EXPECT_NE(result.error().message.find(removed), std::string::npos)
        << result.error().message;
  }
  for (const auto& [key, value] :
       {std::pair{"deploy_retries", "abc"}, std::pair{"deploy_retries", "-1"},
        std::pair{"retry_backoff_ms", "-5"},
        std::pair{"deploy_timeout_ms", "9223372036854775807"},
        std::pair{"cloud_fallback", "maybe"}}) {
    Config config;
    config.set(key, value);
    const auto result = ControllerOptions::fromConfig(config);
    ASSERT_FALSE(result.ok()) << key << " = " << value;
    EXPECT_NE(result.error().message.find(key), std::string::npos)
        << result.error().message;
  }
}

// Property: over seeded random configs -- a mix of known and unknown keys,
// each known key given a valid value or a malformed one (negative,
// non-finite, unparseable, out of range, an overflowing `_ms`) -- the
// strict parsers accept exactly the configs with no unknown key and no
// malformed value, and otherwise name one of the offending keys.
enum class ValueKind { kString, kBool, kInt, kUnsigned, kDouble, kMillis };

struct KnownKey {
  const char* key;
  ValueKind kind;
};

const std::vector<KnownKey>& controllerKeys() {
  static const std::vector<KnownKey> keys = {
      {"scheduler", ValueKind::kString},
      {"switch_idle_timeout_ms", ValueKind::kMillis},
      {"memory_idle_timeout_ms", ValueKind::kMillis},
      {"scale_down_idle", ValueKind::kBool},
      {"remove_idle_after_ms", ValueKind::kMillis},
      {"delete_images_on_remove", ValueKind::kBool},
      {"port_poll_interval_ms", ValueKind::kMillis},
      {"deploy_timeout_ms", ValueKind::kMillis},
      {"phase_timeout_ms", ValueKind::kMillis},
      {"deploy_retries", ValueKind::kInt},
      {"retry_backoff_ms", ValueKind::kMillis},
      {"cloud_fallback", ValueKind::kBool},
      {"quarantine_cooldown_ms", ValueKind::kMillis},
      {"local_scheduler", ValueKind::kString},
      {"instance_policy", ValueKind::kString},
      {"reliable_flow_mods", ValueKind::kBool},
      {"flow_mod_ack_timeout_ms", ValueKind::kMillis},
      {"flow_mod_retries", ValueKind::kInt},
      {"reconcile_enabled", ValueKind::kBool},
      {"reconcile_period_ms", ValueKind::kMillis},
      {"reconcile_sweep_timeout_ms", ValueKind::kMillis},
  };
  return keys;
}

const std::vector<KnownKey>& overloadKeys() {
  static const std::vector<KnownKey> keys = {
      {"overload_enabled", ValueKind::kBool},
      {"overload_request_budget_ms", ValueKind::kMillis},
      {"overload_max_deploys_per_cluster", ValueKind::kInt},
      {"overload_breaker_enabled", ValueKind::kBool},
      {"overload_breaker_window_ms", ValueKind::kMillis},
      {"overload_breaker_min_samples", ValueKind::kUnsigned},
      {"overload_breaker_failure_ratio", ValueKind::kDouble},
      {"overload_breaker_latency_threshold_ms", ValueKind::kDouble},
      {"overload_breaker_cooldown_ms", ValueKind::kMillis},
      {"overload_brownout_shed_threshold", ValueKind::kUnsigned},
      {"overload_brownout_window_ms", ValueKind::kMillis},
      {"overload_brownout_min_dwell_ms", ValueKind::kMillis},
  };
  return keys;
}

/// A value of `kind`; `valid` picks from the accepted values, otherwise
/// from the malformed ones that apply to the kind.
std::string randomValue(Rng& rng, ValueKind kind, bool valid) {
  const auto pick = [&rng](std::vector<std::string> pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  // Malformed for every numeric kind: negative or unparseable.
  const std::vector<std::string> badNumber = {"-1",   "-250", "abc",
                                              "12ms", "",     "1,5"};
  // Malformed for the integer kinds too: a fraction, an exponent, and
  // beyond int64.
  std::vector<std::string> badInteger = badNumber;
  badInteger.insert(badInteger.end(), {"2.5", "1e3", "99999999999999999999"});
  switch (kind) {
    case ValueKind::kString:
      return pick({"proximity", "latency-first", "x", ""});
    case ValueKind::kBool:
      return valid ? pick({"true", "false", "yes", "no", "on", "off", "1",
                           "0", "TRUE"})
                   : pick({"maybe", "2", "", "-1", "truthy"});
    case ValueKind::kInt: {
      if (valid) return pick({"0", "3", "17", "2147483647"});
      auto bad = badInteger;
      bad.push_back("2147483648");  // beyond int
      return pick(bad);
    }
    case ValueKind::kUnsigned: {
      return valid ? pick({"0", "8", "64", "9223372036854775807"})
                   : pick(badInteger);
    }
    case ValueKind::kDouble: {
      if (valid) {
        return pick({"0", "0.5", "12.25", "1e3", "7", "99999999999999999999"});
      }
      auto bad = badNumber;
      bad.insert(bad.end(), {"nan", "inf", "-inf", "-0.5"});
      return pick(bad);
    }
    case ValueKind::kMillis: {
      // 9223372036854 ms is the largest that fits int64 nanoseconds.
      if (valid) return pick({"0", "25", "60000", "9223372036854"});
      auto bad = badInteger;
      bad.insert(bad.end(), {"9223372036855", "9223372036854775807"});
      return pick(bad);
    }
  }
  return "";
}

/// The key a parser error names: the text between the first pair of
/// single quotes.
std::string namedKey(const std::string& message) {
  const auto open = message.find('\'');
  const auto close = message.find('\'', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return message.substr(open + 1, close - open - 1);
}

class StrictConfigProperty : public ::testing::TestWithParam<int> {};

TEST_P(StrictConfigProperty, AcceptsExactlyTheValidConfigs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<KnownKey> all = controllerKeys();
  all.insert(all.end(), overloadKeys().begin(), overloadKeys().end());
  const std::vector<std::string> unknownKeys = {
      "workers", "flow_shards", "overload_shed_policy", "schedular",
      "deploy_timeout", "overload_bogus_ms"};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 200; ++round) {
    // Controller configs draw from every key; overload-only configs from
    // the overload keys, where a controller key is unknown too.
    const bool overloadOnly = rng.chance(0.3);
    const std::vector<KnownKey>& pool = overloadOnly ? overloadKeys() : all;
    std::string text;
    std::set<std::string> used;
    std::set<std::string> offending;
    const auto count = rng.uniformInt(0, 6);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string key;
      std::string value;
      bool bad = true;
      if (rng.chance(0.1)) {
        key = unknownKeys[rng.uniformInt(0, unknownKeys.size() - 1)];
        value = "1";
      } else if (overloadOnly && rng.chance(0.05)) {
        const KnownKey& known = controllerKeys()[rng.uniformInt(
            0, controllerKeys().size() - 1)];
        key = known.key;
        value = randomValue(rng, known.kind, true);
      } else {
        const KnownKey& known = pool[rng.uniformInt(0, pool.size() - 1)];
        key = known.key;
        // Any text is a valid string value.
        bad = known.kind != ValueKind::kString && !rng.chance(0.8);
        value = randomValue(rng, known.kind, !bad);
      }
      if (!used.insert(key).second) continue;  // one line per key
      if (bad) offending.insert(key);
      text += key + " = " + value + "\n";
    }
    const auto parsed = Config::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const auto statusOf = [](const auto& result) {
      return result.ok() ? Status() : Status(result.error());
    };
    const Status status =
        overloadOnly
            ? statusOf(overload::OverloadOptions::fromConfig(parsed.value()))
            : statusOf(ControllerOptions::fromConfig(parsed.value()));
    if (offending.empty()) {
      EXPECT_TRUE(status.ok())
          << "seed " << GetParam() << " round " << round << "\n"
          << text << status.error().toString();
      ++accepted;
    } else {
      ASSERT_FALSE(status.ok())
          << "seed " << GetParam() << " round " << round << "\n" << text;
      EXPECT_EQ(status.error().code, Errc::kInvalidArgument);
      EXPECT_EQ(offending.count(namedKey(status.error().message)), 1u)
          << "seed " << GetParam() << " round " << round << "\n"
          << text << status.error().message;
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictConfigProperty, ::testing::Range(1, 9));

TEST(ControllerTest, RegisterServiceRejectsDuplicatesAndBadYaml) {
  Testbed bed;
  EXPECT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  const auto duplicate = bed.registerCatalogService("asm", kNginxAddr);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, Errc::kAlreadyExists);

  const auto bad =
      bed.controller().registerService("not: a deployment\n",
                                       Endpoint(Ipv4(1, 2, 3, 4), 80), "bad");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bed.controller().serviceAt(Endpoint(Ipv4(1, 2, 3, 4), 80)),
            nullptr);
}

TEST(ControllerTest, RegistrationHostsCloudInstance) {
  Testbed bed;
  const auto registered = bed.registerCatalogService("nginx", kNginxAddr);
  ASSERT_TRUE(registered.ok());
  const auto instances =
      bed.cloudAdapter()->readyInstances(*registered.value());
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].ip, bed.cloud().ip());
}

TEST(ControllerTest, BackgroundFlowsInstalledOnAttach) {
  Testbed bed;
  bed.sim().runUntil(100_ms);
  // One low-priority reachability flow per known host (clients + EGS +
  // cloud).
  std::size_t lowPriority = 0;
  for (const auto& entry : bed.ovs().table().entries()) {
    if (entry.priority == 1) ++lowPriority;
  }
  EXPECT_EQ(lowPriority, bed.clientCount() + 2);
}

TEST(ControllerTest, RedirectInstallsForwardAndReverseFlows) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(5_s);

  bool sawForward = false;
  bool sawReverse = false;
  for (const auto& entry : bed.ovs().table().entries()) {
    if (entry.priority != 100) continue;
    if (entry.match.ipDst == kNginxAddr.ip && entry.match.tcpDst == 80 &&
        entry.match.ipSrc == bed.client(0).ip()) {
      sawForward = true;
      EXPECT_TRUE(entry.notifyOnRemoval);
      EXPECT_GT(entry.idleTimeout, SimTime::zero());
    }
    if (entry.match.ipDst == bed.client(0).ip() &&
        entry.match.ipSrc == bed.egs().ip()) {
      sawReverse = true;
    }
  }
  EXPECT_TRUE(sawForward);
  EXPECT_TRUE(sawReverse);
  // FlowMemory mirrors the installed flow.
  EXPECT_TRUE(bed.controller()
                  .flowMemory()
                  .lookup(bed.client(0).ip(), kNginxAddr)
                  .has_value());
}

TEST(ControllerTest, DuplicateSynsProduceOneResolution) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  // Slow down the deployment so the client retransmits its SYN into the
  // pending window: use the UNCACHED path (pull takes seconds).
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  // SYN retransmissions happened during the multi-second pull...
  EXPECT_GE(got->value().timings.synRetransmits, 1);
  // ...but only one deployment and one resolution resulted.
  EXPECT_EQ(bed.controller().dispatcher().deploymentsTriggered(), 1u);
  EXPECT_EQ(bed.controller().requestsResolved(), 1u);
}

TEST(ControllerTest, KnownHostRoutedByBackgroundFlowWithoutController) {
  // Unregistered traffic to a *known* host rides the low-priority
  // reachability flows; the controller never sees a packet-in.
  Testbed bed;
  bed.cloud().listen(9000, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });
  std::optional<Result<HttpExchange>> got;
  bed.request(0, Endpoint(bed.cloud().ip(), 9000), "t", HttpMethod::kGet,
              Bytes{0}, [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(5_s);
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(bed.controller().packetInCount(), 0u);
}

TEST(ControllerTest, UnknownDestinationGetsUplinkFlow) {
  // Traffic to an IP with no background flow table-misses; the controller
  // installs a coarse ipDst flow toward the uplink and releases the packet.
  Testbed bed;
  const Endpoint unknown(Ipv4(8, 8, 8, 8), 53);
  bed.request(0, unknown, "t");
  bed.sim().runUntil(3_s);
  EXPECT_GE(bed.controller().packetInCount(), 1u);
  bool sawCoarse = false;
  for (const auto& entry : bed.ovs().table().entries()) {
    if (entry.priority == 10 && entry.match.ipDst == unknown.ip &&
        !entry.match.tcpDst.has_value()) {
      sawCoarse = true;
    }
  }
  EXPECT_TRUE(sawCoarse);
}

TEST(ControllerTest, ScaleDownCountsAndMemoryEmpties) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 2_s;
  options.controller.switchIdleTimeout = 1_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(15_s);
  EXPECT_EQ(bed.controller().scaleDowns(), 1u);
  EXPECT_EQ(bed.controller().flowMemory().size(), 0u);
  // Switch flows also idled out.
  for (const auto& entry : bed.ovs().table().entries()) {
    EXPECT_NE(entry.priority, 100);
  }
}

TEST(ControllerTest, ScaleDownDisabledKeepsInstance) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 2_s;
  options.controller.scaleDownIdleServices = false;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(15_s);
  EXPECT_EQ(bed.controller().scaleDowns(), 0u);
  const ServiceModel* model = bed.controller().serviceAt(kNginxAddr).get();
  EXPECT_EQ(bed.dockerAdapter()->readyInstances(*model).size(), 1u);
}

TEST(ControllerTest, SharedInstanceNotScaledDownWhileOtherClientActive) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 4_s;
  options.controller.switchIdleTimeout = 1_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  // Client 0 hits once; client 1 keeps the service busy every second.
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  for (int i = 1; i <= 12; ++i) {
    bed.sim().scheduleAt(SimTime::seconds(i), [&bed] {
      bed.requestCatalog(1, "nginx", kNginxAddr, "busy");
    });
  }
  bed.sim().runUntil(10_s);
  // Client 0's memory expired, but client 1's flow keeps the service up.
  const ServiceModel* model = bed.controller().serviceAt(kNginxAddr).get();
  EXPECT_EQ(bed.dockerAdapter()->readyInstances(*model).size(), 1u);
  EXPECT_EQ(bed.controller().scaleDowns(), 0u);
}

TEST(ControllerTest, LocalSchedulerNamePropagatesToK8s) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kK8sOnly;
  options.controller.localScheduler = "edge-local";
  Testbed bed(options);
  // Register the strategy so pods actually schedule.
  bed.k8sCluster()->scheduler().registerStrategy(
      "edge-local",
      [](const k8s::Pod&, const std::vector<k8s::NodeHandle>& nodes,
         const k8s::Store<k8s::Pod>&,
         const std::map<std::string, int>&) { return nodes[0].name; });
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<HttpExchange>> got;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  bed.sim().runUntil(30_s);
  ASSERT_TRUE(got.has_value() && got->ok());
  const auto pods = bed.k8sCluster()->podsBySelector(
      {{"edge.service", kNginxAddr.toString()}});
  ASSERT_FALSE(pods.empty());
  EXPECT_EQ(pods[0]->spec.schedulerName, "edge-local");
}

TEST(ControllerTest, RemovePhaseAfterProlongedIdle) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 2_s;
  options.controller.switchIdleTimeout = 1_s;
  options.controller.removeIdleAfter = 3_s;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(20_s);
  // Scale-down (~idle 2 s) then removal (~3 s later): containers gone.
  EXPECT_EQ(bed.controller().scaleDowns(), 1u);
  EXPECT_EQ(bed.controller().removals(), 1u);
  EXPECT_TRUE(bed.dockerEngine().listContainers().empty());
  // Image still cached (Delete phase disabled by default).
  EXPECT_TRUE(bed.egsStore().hasImage(
      *container::ImageRef::parse("nginx:1.23.2")));

  // A new request goes through the FULL create + scale-up again.
  std::optional<double> again;
  bed.requestCatalog(1, "nginx", kNginxAddr, "again",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       again = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(40_s);
  ASSERT_TRUE(again.has_value());
  EXPECT_GT(*again, 0.4);  // paid create + scale-up
}

TEST(ControllerTest, DeletePhaseDropsImagesWhenEnabled) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  options.controller.memoryIdleTimeout = 2_s;
  options.controller.switchIdleTimeout = 1_s;
  options.controller.removeIdleAfter = 3_s;
  options.controller.deleteImagesOnRemove = true;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");
  bed.requestCatalog(0, "nginx", kNginxAddr, "t");
  bed.sim().runUntil(20_s);
  EXPECT_EQ(bed.controller().removals(), 1u);
  EXPECT_FALSE(bed.egsStore().hasImage(
      *container::ImageRef::parse("nginx:1.23.2")));
  // The next request must pull again.
  std::optional<double> again;
  bed.requestCatalog(1, "nginx", kNginxAddr, "again",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       again = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(60_s);
  ASSERT_TRUE(again.has_value());
  EXPECT_GT(*again, 3.0);  // pull dominates again
}

TEST(ControllerTest, PredeployMakesFirstRequestWarm) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  bed.warmImageCache("nginx");

  std::optional<Result<Endpoint>> deployed;
  ASSERT_TRUE(bed.controller()
                  .predeploy(kNginxAddr, "docker-egs",
                             [&](Result<Endpoint> r) { deployed = std::move(r); })
                  .ok());
  bed.sim().runUntil(5_s);
  ASSERT_TRUE(deployed.has_value());
  ASSERT_TRUE(deployed->ok());

  // The predicted client's first request finds a running instance: no
  // deployment wait, just the redirect.
  std::optional<double> first;
  bed.requestCatalog(0, "nginx", kNginxAddr, "t",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       first = r.value().timings.timeTotal().toSeconds();
                     });
  bed.sim().runUntil(10_s);
  ASSERT_TRUE(first.has_value());
  EXPECT_LT(*first, 0.05);
  EXPECT_EQ(bed.controller().dispatcher().deploymentsTriggered(), 1u);
}

TEST(ControllerTest, PredeployValidatesArguments) {
  Testbed bed;
  EXPECT_EQ(bed.controller().predeploy(kNginxAddr, "docker-egs").ok(), false);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  EXPECT_FALSE(bed.controller().predeploy(kNginxAddr, "no-such-cluster").ok());
}

TEST(ControllerTest, TwoServicesIndependentLifecycles) {
  TestbedOptions options;
  options.clusterMode = ClusterMode::kDockerOnly;
  Testbed bed(options);
  const Endpoint asmAddr(Ipv4(203, 0, 113, 11), 80);
  ASSERT_TRUE(bed.registerCatalogService("nginx", kNginxAddr).ok());
  ASSERT_TRUE(bed.registerCatalogService("asm", asmAddr).ok());
  bed.warmImageCache("nginx");
  bed.warmImageCache("asm");

  int done = 0;
  bed.requestCatalog(0, "nginx", kNginxAddr, "nginx",
                     [&](Result<HttpExchange> r) {
                       ASSERT_TRUE(r.ok());
                       ++done;
                     });
  bed.requestCatalog(1, "asm", asmAddr, "asm", [&](Result<HttpExchange> r) {
    ASSERT_TRUE(r.ok());
    ++done;
  });
  bed.sim().runUntil(30_s);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(bed.controller().dispatcher().deploymentsTriggered(), 2u);
  EXPECT_EQ(bed.dockerEngine().runtime().startedCount(), 2u);
}

}  // namespace
}  // namespace edgesim::core
