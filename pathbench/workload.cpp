#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "alloc_count.hpp"
#include "probes.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace pathbench {

using namespace edgesim;
using namespace edgesim::core;

namespace {

constexpr const char* kCatalogKey = "nginx";
constexpr const char* kSeries = "pathbench";
// Host::httpRequest arms a 120 s total-timeout timer per request and event
// cancellation is lazy, so the heap carries one dead entry per request of
// the last 120 s.  Timing starts only after at least this much simulated
// load.
constexpr SimTime kMinPreloadSpan = SimTime::seconds(120.0);
// Long enough for the last timed request (a K8s scale-up: ~2.5 s) and its
// flow-mod acks to settle.
constexpr SimTime kDrainSpan = SimTime::seconds(15.0);
// Steady-state guard: heap depth at the end of the timed phase within this
// share of its depth at the start.
constexpr double kHeapDrift = 0.05;
// Client addresses are 10.0.2.<i+1>: beyond this they wrap.
constexpr std::size_t kMaxClients = 255;

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Endpoint serviceAddress(std::size_t index) {
  return Endpoint(Ipv4(203, 0, 113, static_cast<std::uint8_t>(index + 1)), 80);
}

std::size_t roundUp(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

Counters readCounters(Testbed& bed, bool observability) {
  Counters c;
  c.events = bed.sim().processedEvents();
  c.heapDepth = bed.sim().pendingEvents();
  c.delivered = bed.net().deliveredPackets();
  c.lookups = bed.ovs().matchedPackets() + bed.ovs().tableMissCount();
  c.tableSize = bed.ovs().table().size();
  EdgeController& controller = bed.controller();
  c.packetIns = controller.packetInCount();
  c.flowModsSent = controller.flowModsSent();
  c.flowModsAcked = controller.flowModsAcked();
  c.deployments = controller.dispatcher().deploymentsTriggered();
  c.degraded = controller.requestsDegraded();
  if (observability) {
    // FlowMemory's hit series exists only when telemetry is on.
    for (std::size_t shard = 0; shard < controller.flowMemory().shardCount();
         ++shard) {
      c.memoryHits += bed.telemetry()
                          .counter("edgesim_flow_memory_lookups_total",
                                   {{"shard", std::to_string(shard)},
                                    {"result", "hit"}})
                          .value();
    }
  }
  c.spans = bed.trace().spanCount();
  c.registryPulls = bed.registry().pullCount();
  if (k8s::K8sCluster* cluster = bed.k8sCluster()) {
    for (const k8s::Kubelet* kubelet : cluster->kubelets()) {
      c.podStarts += kubelet->startedPods();
    }
  }
  c.allocations = threadAllocations();
  return c;
}

/// Open-loop request source: request i is due at t0 + i * gap.  Only the
/// next request is ever scheduled, so the generator adds one heap entry,
/// not one per request.
class LoadGenerator {
 public:
  struct Outcome {
    bool answered = false;
    bool ok = false;
    SimTime latency;
  };

  LoadGenerator(Testbed& bed, const Workload& workload,
                std::vector<std::size_t> clientOrder, SimTime t0,
                std::size_t total)
      : bed_(bed),
        workload_(workload),
        clientOrder_(std::move(clientOrder)),
        t0_(t0),
        outcomes_(total) {}

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start() {
    bed_.sim().scheduleAt(t0_, [this] { fire(); });
  }
  SimTime dueAt(std::size_t i) const {
    return t0_ + workload_.gap * static_cast<std::int64_t>(i);
  }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  void fire() {
    const std::size_t i = next_++;
    const std::size_t client = clientOrder_[i % clientOrder_.size()];
    bed_.requestCatalog(client, kCatalogKey,
                        serviceAddress(i % workload_.services), kSeries,
                        [this, i](Result<HttpExchange> r) {
                          Outcome& outcome = outcomes_[i];
                          outcome.answered = true;
                          outcome.ok = r.ok();
                          if (r.ok()) outcome.latency = r.value().timings.timeTotal();
                        });
    if (next_ < outcomes_.size()) {
      bed_.sim().scheduleAt(dueAt(next_), [this] { fire(); });
    }
  }

  Testbed& bed_;
  const Workload& workload_;
  std::vector<std::size_t> clientOrder_;
  SimTime t0_;
  std::vector<Outcome> outcomes_;
  std::size_t next_ = 0;
};

/// Run until `done` holds or simulated time passes `limit`.
template <typename Pred>
bool stepUntil(Testbed& bed, SimTime limit, Pred done) {
  while (!done()) {
    if (bed.sim().now() > limit || !bed.sim().step()) return false;
  }
  return true;
}

/// Bring the service(s) to the state the workload starts from.
void warmUp(Testbed& bed, const Workload& workload,
            const std::vector<const ServiceModel*>& models,
            std::vector<std::string>& violations) {
  const SimTime limit = bed.sim().now() + SimTime::seconds(120.0);
  if (workload.shape == Shape::kCold) {
    // Create phase ahead of time (fig. 11's protocol): every timed request
    // pays Scale-Up only.
    std::size_t created = 0;
    for (const ServiceModel* model : models) {
      bed.k8sAdapter()->createService(*model, [&created](Status status) {
        if (status.ok()) ++created;
      });
    }
    if (!stepUntil(bed, limit, [&] { return created == models.size(); })) {
      violations.push_back("warm-up: K8s create phase did not finish");
    }
    return;
  }
  // One request deploys the Docker instance every later request reuses.
  bool answered = false;
  bool ok = false;
  bed.requestCatalog(0, kCatalogKey, serviceAddress(0), "warmup",
                     [&](Result<HttpExchange> r) {
                       answered = true;
                       ok = r.ok();
                     });
  if (!stepUntil(bed, limit, [&] { return answered; }) || !ok) {
    violations.push_back("warm-up: deploy request was not answered OK");
  }
}

void checkShape(const Workload& workload, const SampleResult& r,
                std::vector<std::string>& violations) {
  const std::uint64_t k = r.timedRequests;
  const auto delta = [&r](std::uint64_t Counters::*field) {
    return r.end.*field - r.start.*field;
  };
  const std::uint64_t packetIns = delta(&Counters::packetIns);
  const std::uint64_t deployments = delta(&Counters::deployments);
  const auto expect = [&](bool holds, const std::string& what) {
    if (!holds) violations.push_back("shape: " + what);
  };
  switch (workload.shape) {
    case Shape::kWarm:
      expect(packetIns == 0, strprintf("%llu packet-ins, want 0",
                                       static_cast<unsigned long long>(packetIns)));
      expect(deployments == 0,
             strprintf("%llu deployments, want 0",
                       static_cast<unsigned long long>(deployments)));
      break;
    case Shape::kReinstall:
      expect(packetIns == k,
             strprintf("%llu packet-ins for %llu requests, want one each",
                       static_cast<unsigned long long>(packetIns),
                       static_cast<unsigned long long>(k)));
      // The FlowMemory hit series exists only with telemetry on.
      if (r.observability) {
        const std::uint64_t hits = delta(&Counters::memoryHits);
        expect(hits == k,
               strprintf("%llu FlowMemory hits for %llu requests, want one "
                         "each",
                         static_cast<unsigned long long>(hits),
                         static_cast<unsigned long long>(k)));
      }
      expect(deployments == 0,
             strprintf("%llu deployments, want 0",
                       static_cast<unsigned long long>(deployments)));
      break;
    case Shape::kCold: {
      const std::uint64_t degraded = delta(&Counters::degraded);
      expect(deployments == k,
             strprintf("%llu deployments for %llu requests, want one each",
                       static_cast<unsigned long long>(deployments),
                       static_cast<unsigned long long>(k)));
      expect(degraded == 0,
             strprintf("%llu degraded redirects, want 0",
                       static_cast<unsigned long long>(degraded)));
      break;
    }
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      // Re-request every 0.5 s: well inside the 5 s switch idle timeout, so
      // every packet matches an installed redirect.
      {"warm_250", Shape::kWarm, ClusterMode::kDockerOnly, 250, 1,
       SimTime::millis(2), false, kMinPreloadSpan, 100000},
      // Re-request every 6 s: past the 5 s switch idle timeout, inside the
      // 60 s FlowMemory timeout -- every request is a §V memory hit.
      {"reinstall_250", Shape::kReinstall, ClusterMode::kDockerOnly, 250, 1,
       SimTime::millis(24), true, kMinPreloadSpan, 20000},
      // Each service re-requested after 80 s idle: past FlowMemory expiry
      // and the scale-down it triggers, so every request pays Scale-Up.
      // Every deployment also arms the dispatcher's hard deadline,
      // deployTimeout * (deployRetries + 1) = 480 s, which stays in the heap
      // after the deployment settles: the preload covers it.
      {"cold_k8s", Shape::kCold, ClusterMode::kK8sOnly, 40, 40,
       SimTime::millis(2025), true, SimTime::seconds(560.0), 960},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

SampleResult runSample(const Workload& workload, const SampleOptions& options) {
  SampleResult result;
  std::vector<std::string>& violations = result.violations;
  const bool observability =
      options.observability.value_or(workload.observability);
  result.observability = observability;
  const double setupStart = wallSeconds();

  TestbedOptions bedOptions;
  bedOptions.seed = options.seed;
  bedOptions.clientCount = workload.clients;
  bedOptions.clusterMode = workload.mode;
  bedOptions.tracing = observability;
  bedOptions.telemetry = observability;
  Testbed bed(bedOptions);

  // Steady-state guard: distinct client addresses (they wrap above 255).
  std::set<Ipv4> addresses;
  for (std::size_t i = 0; i < bed.clientCount(); ++i) {
    addresses.insert(bed.client(i).ip());
  }
  if (workload.clients > kMaxClients || addresses.size() != workload.clients) {
    violations.push_back(strprintf("setup: %zu distinct client IPs for %zu "
                                   "clients",
                                   addresses.size(), workload.clients));
  }

  std::vector<const ServiceModel*> models;
  for (std::size_t s = 0; s < workload.services; ++s) {
    const auto registered =
        bed.registerCatalogService(kCatalogKey, serviceAddress(s));
    ES_ASSERT_MSG(registered.ok(), "catalogue service registration failed");
    models.push_back(registered.value());
  }
  bed.warmImageCache(kCatalogKey);
  warmUp(bed, workload, models, violations);

  std::optional<TimedController> proxy;
  if (options.instrument) {
    proxy.emplace(bed.controller());
    bed.ovs().setController(&*proxy);
  }

  // Inputs from the seed: which client goes when, and the phase of t0.
  Rng rng(options.seed);
  std::vector<std::size_t> clientOrder(workload.clients);
  for (std::size_t i = 0; i < clientOrder.size(); ++i) clientOrder[i] = i;
  for (std::size_t i = clientOrder.size(); i > 1; --i) {
    std::swap(clientOrder[i - 1], clientOrder[rng.uniformInt(0, i - 1)]);
  }
  const SimTime t0 = bed.sim().now() + SimTime::millis(1) +
                     workload.gap.scaled(rng.uniform01());

  // Whole client/service rounds in both phases, so the timed phase starts
  // and ends at the same point of the request cycle.
  const std::size_t cycle = std::max(workload.clients, workload.services);
  const auto preloadNeeded = static_cast<std::size_t>(
      (workload.preloadSpan.toNanos() + workload.gap.toNanos() - 1) /
      workload.gap.toNanos());
  const std::size_t preload = roundUp(preloadNeeded, cycle);
  const std::size_t parts = std::max<std::size_t>(options.timedParts, 1);
  const std::size_t partRequests = roundUp(
      ((options.timedRequests > 0 ? options.timedRequests
                                  : workload.timedRequests) +
       parts - 1) / parts,
      cycle);
  result.timedRequests = partRequests * parts;
  LoadGenerator generator(bed, workload, clientOrder, t0,
                          preload + result.timedRequests);
  generator.start();
  if (generator.dueAt(preload) - t0 < kMinPreloadSpan) {
    violations.push_back("steady state: preload shorter than 120 s");
  }

  // Preload: part of set-up.
  const SimTime timedStart = generator.dueAt(preload) - SimTime::nanos(1);
  const SimTime timedEnd =
      generator.dueAt(preload + result.timedRequests) - SimTime::nanos(1);
  bed.sim().runUntil(timedStart);
  result.setupSeconds = wallSeconds() - setupStart;
  result.start = readCounters(bed, observability);
  const double handlerBefore = proxy ? proxy->busySeconds() : 0.0;

  const auto between = [&] {
    if (options.betweenParts) {
      result.betweenPartsMs.push_back(options.betweenParts());
    }
  };
  between();
  for (std::size_t part = 1; part <= parts; ++part) {
    const double partStart = wallSeconds();
    bed.sim().runUntil(generator.dueAt(preload + part * partRequests) -
                       SimTime::nanos(1));
    const double seconds = wallSeconds() - partStart;
    result.timedSeconds += seconds;
    result.partUsPerRequest.push_back(seconds * 1e6 /
                                      static_cast<double>(partRequests));
    between();
  }

  result.end = readCounters(bed, observability);
  result.timedSpan = timedEnd - timedStart;
  if (proxy) {
    result.handlerSeconds = proxy->busySeconds() - handlerBefore;
    result.table = bed.ovs().table().entries();
    result.tableAt = bed.sim().now();
    result.sweepPeriod = bed.ovs().options().expiryScanPeriod;
  }
  result.links = bed.clientCount() + 2;  // clients + EGS + cloud

  // Drain, then check the run.
  bed.sim().runUntil(bed.sim().now() + kDrainSpan);
  if (proxy) bed.ovs().setController(&bed.controller());

  const auto& outcomes = generator.outcomes();
  result.issued = outcomes.size();
  Samples latencies;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  const auto mix = [&hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    if (outcome.answered && outcome.ok) ++result.answeredOk;
    mix(i);
    mix(static_cast<std::uint64_t>(outcome.answered) |
        static_cast<std::uint64_t>(outcome.ok) << 1);
    mix(static_cast<std::uint64_t>(outcome.latency.toNanos()));
    if (i >= preload && outcome.ok) latencies.add(outcome.latency.toSeconds());
  }
  result.outcomeHash = hash;
  result.p50Seconds = latencies.empty() ? 0.0 : latencies.median();
  result.p99Seconds = latencies.empty() ? 0.0 : latencies.p99();

  if (result.answeredOk != result.issued) {
    violations.push_back(strprintf("ledger: %zu of %zu requests answered OK",
                                   result.answeredOk, result.issued));
  }
  EdgeController& controller = bed.controller();
  if (controller.requestsSubmitted() != controller.requestsResolved() +
                                            controller.requestsFailed() +
                                            controller.requestsShed()) {
    violations.push_back("ledger: submitted != resolved + failed + shed");
  }
  if (controller.flowModsSent() !=
          controller.flowModsAcked() + controller.flowModsTimedOut() ||
      controller.pendingInstallCount() != 0) {
    violations.push_back(
        "ledger: flow mods sent != acked + timed out, or installs pending");
  }
  checkShape(workload, result, violations);
  const double drift =
      std::abs(static_cast<double>(result.end.heapDepth) -
               static_cast<double>(result.start.heapDepth)) /
      static_cast<double>(std::max<std::size_t>(result.start.heapDepth, 1));
  if (drift > kHeapDrift) {
    violations.push_back(strprintf(
        "steady state: heap depth %zu -> %zu over the timed phase",
        result.start.heapDepth, result.end.heapDepth));
  }
  return result;
}

}  // namespace pathbench
