// Dispatcher (§IV-B, fig. 7): feeds the Global Scheduler with the current
// system state and drives the deployment phases.
//
// On a request for which no flow is memorized, the Dispatcher gathers the
// list of existing and running instances across all clusters, asks the
// Global Scheduler for its FAST and BEST choices, ensures the chosen
// instances are pulled/created/scaled up, waits (port polling) until the
// FAST instance answers, and hands the redirect back to the controller.
// A non-empty BEST choice triggers a background deployment ("without
// waiting", fig. 3).
//
// Phase durations (Pull / Create / Scale-Up / Wait) are recorded per
// service tag -- these are exactly the quantities plotted in figs. 11-15.
//
// Failure handling: a failed or watchdog-timed-out phase is retried with
// capped exponential backoff (RetryPolicy).  When the budget is exhausted
// the cluster is quarantined from the Global Scheduler for a cooldown and
// waiting clients are degraded to a ready cloud instance (when one exists)
// instead of receiving an error.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster_adapter.hpp"
#include "core/flow_memory.hpp"
#include "core/proximity.hpp"
#include "core/scheduler.hpp"
#include "metrics/recorder.hpp"
#include "overload/governor.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace edgesim::core {

struct Redirect {
  Endpoint instance;
  std::string cluster;
  bool fromMemory = false;
  /// True when this redirect is a degraded answer: the chosen edge cluster
  /// failed its deployment and the client was sent to the cloud instead.
  /// Degraded redirects are NOT memorized, so the client's next request
  /// re-tries the edge.
  bool degraded = false;
  /// True when the overload governor terminated the request early (deadline
  /// budget expired while the deployment was still in flight) and this is
  /// the fail-fast cloud answer.  Implies degraded.  The controller counts
  /// these as SHED, not resolved.
  bool shed = false;
};

/// Capped exponential backoff for failed deployment phases.
struct RetryPolicy {
  int maxRetries = 3;
  SimTime initialBackoff = SimTime::millis(200);
  double multiplier = 2.0;
  SimTime maxBackoff = SimTime::seconds(10.0);

  /// Delay before retry number `retryIndex` (0-based):
  /// min(initialBackoff * multiplier^retryIndex, maxBackoff).
  SimTime backoff(int retryIndex) const;
};

struct DispatcherOptions {
  SimTime portPollInterval = SimTime::millis(50);
  /// Overall budget for one deployment *attempt*; the hard deadline for a
  /// deployment including retries is deployTimeout * (retry.maxRetries + 1).
  SimTime deployTimeout = SimTime::seconds(120.0);
  /// Per-phase watchdog: a Pull / Create / Scale-Up(+wait) phase running
  /// longer than this is failed and retried.  Zero disables the watchdog
  /// (the overall deadline still applies).
  SimTime phaseTimeout = SimTime::zero();
  RetryPolicy retry;
  /// When a FAST deployment exhausts its retry budget, resolve the waiting
  /// clients to a ready cloud instance (degraded redirect) instead of
  /// failing them.
  bool cloudFallback = true;
  /// How long a cluster whose deployment exhausted its retry budget is
  /// hidden from the Global Scheduler.  Zero disables quarantine.
  SimTime quarantineCooldown = SimTime::seconds(30.0);
  /// Request-time instance choice within the chosen cluster (fig. 6 Local
  /// Scheduler): "first", "instance-round-robin", or "client-hash".
  std::string instancePolicy = "first";
};

class Dispatcher : private ReadinessObserver {
 public:
  using ResolveCallback = std::function<void(Result<Redirect>)>;
  using ReadyCallback = std::function<void(Result<Endpoint>)>;

  /// `telemetry` (optional) registers per-cluster phase-duration histograms
  /// and holds the deployment / background / retry / fallback / quarantine
  /// and scheduler-decision counters -- the dispatcher's only count store;
  /// without it the counters go to a private registry.  Handles are
  /// resolved once here (deployment work is sim-thread only, but the
  /// striped instruments stay safe to read at any time).
  /// `recorder` (optional) gets one `<tag>/<cluster>/<phase>` sample per
  /// completed deployment phase, in seconds; it holds no counts.
  /// `governor` (optional) adds overload protection: deadline budgets fail
  /// fast to the cloud, per-cluster deploy tokens cap concurrent
  /// deployments, circuit-breaker outcomes are fed from deployment results,
  /// and brownout forces the "without waiting" redirect behaviour.
  Dispatcher(Simulation& sim, FlowMemory& memory, GlobalScheduler& scheduler,
             std::vector<ClusterAdapter*> adapters,
             metrics::Recorder* recorder = nullptr,
             DispatcherOptions options = {},
             trace::TraceRecorder* trace = nullptr,
             telemetry::MetricsRegistry* telemetry = nullptr,
             overload::OverloadGovernor* governor = nullptr);
  ~Dispatcher() override;

  /// Resolve a client request to a service instance (fig. 7).  `rid` is the
  /// trace request ID allocated by the controller at packet-in (0 = not
  /// traced); every span/instant this resolve produces carries it.
  /// `deadline` is the request's absolute deadline budget (SimTime::max() =
  /// none): if it expires while the FAST deployment is still in flight, the
  /// request is answered immediately with a shed degraded cloud redirect
  /// instead of waiting the deployment out.
  void resolve(ServiceModelPtr service, Ipv4 client, ResolveCallback cb,
               trace::RequestId rid = 0, SimTime deadline = SimTime::max());

  /// Ensure the service is deployed and ready on `cluster`; callbacks for
  /// the same (service, cluster) pair are coalesced onto one deployment.
  /// The deployment's trace spans carry the `rid` of the request that
  /// initiated it; joining requests record a "join-deployment" instant.
  void ensureReady(ServiceModelPtr service, ClusterAdapter& cluster,
                   ReadyCallback cb, trace::RequestId rid = 0);

  ClusterAdapter* adapterByName(const std::string& name) const;
  ClusterAdapter* cloudAdapter() const;
  const std::vector<ClusterAdapter*>& adapters() const { return adapters_; }

  /// Per-client proximity override (mobility): when set, ClusterView
  /// distance ranks handed to the Global Scheduler come from the provider
  /// instead of each adapter's static rank (negative = keep static).
  /// Consulted on the simulation thread only; `provider` must outlive the
  /// dispatcher or be cleared with nullptr first.
  void setProximityProvider(const ProximityProvider* provider) {
    proximity_ = provider;
  }
  const ProximityProvider* proximityProvider() const { return proximity_; }

  /// Local Scheduler choice among `instances` (never empty) for `client` --
  /// exposed so the controller's handover path picks a target instance with
  /// the same request-time policy as resolve().
  Endpoint pickInstance(const std::vector<Endpoint>& instances, Ipv4 client);

  /// Invoked whenever a BEST (background, "without waiting") deployment
  /// becomes ready: (service address, cluster name, instance).  The
  /// controller uses this to migrate future requests to the optimal
  /// location "as soon as the new instance is running" (§IV-A2).
  using BackgroundReadyListener =
      std::function<void(Endpoint service, const std::string& cluster,
                         Endpoint instance)>;
  void setBackgroundReadyListener(BackgroundReadyListener listener) {
    backgroundListener_ = std::move(listener);
  }

  /// Deployments currently in flight.
  std::size_t pendingDeployments() const { return pending_.size(); }
  /// In-flight deployments whose port poll is parked: its last tick found
  /// no ready instance and it waits for the adapter's readiness change.
  std::size_t parkedWaiters() const { return parkedWaiters_; }
  /// Totals over every cluster's series.
  std::uint64_t deploymentsTriggered() const {
    return total(&ClusterTelemetry::deployments);
  }
  std::uint64_t backgroundDeployments() const {
    return total(&ClusterTelemetry::background);
  }
  /// Phase retries performed across all deployments.
  std::uint64_t retries() const { return total(&ClusterTelemetry::retries); }
  /// Resolves answered with a degraded cloud redirect.
  std::uint64_t fallbacks() const {
    return total(&ClusterTelemetry::fallbacks);
  }
  /// Clusters quarantined after an exhausted retry budget.
  std::uint64_t quarantines() const {
    return total(&ClusterTelemetry::quarantines);
  }

 private:
  struct PendingDeploy {
    std::vector<ReadyCallback> waiters;
    SimTime startedAt;
    std::string cluster;
    /// Trace identity of the deployment: `rid` of the initiating request
    /// and the enclosing "deploy" span the phase spans nest under.
    trace::RequestId rid = 0;
    trace::SpanId span = 0;
    int retriesUsed = 0;
    /// The registered model the deployment's callbacks share.
    ServiceModelPtr service;
    /// Identity of the current attempt, drawn from nextAttempt_ on creation
    /// and on every retry.  Never reused, so callbacks of a superseded
    /// attempt -- or of an earlier deployment of the same key that timed
    /// out -- carry a stale epoch and are dropped on arrival.
    std::uint64_t epoch = 0;
    /// This deployment holds one of the governor's per-cluster deploy
    /// tokens; finishDeploy() returns it.
    bool holdsToken = false;
    EventHandle timeoutHandle;  // overall hard deadline
    EventHandle phaseTimer;     // per-phase watchdog
    /// The port poll is parked (DESIGN §16.5): its tick at lastPollAt
    /// found no ready instance, and its next tick, on the same
    /// portPollInterval grid, is scheduled only once the adapter reports a
    /// readiness change.  A new attempt (retry) or the end of the
    /// deployment drops it.
    bool parked = false;
    SimTime scaledUpAt;
    SimTime lastPollAt;
  };

  void runPhases(const ServiceModelPtr& service, ClusterAdapter& cluster,
                 const std::string& key, std::uint64_t epoch);
  void pollUntilReady(const ServiceModelPtr& service,
                      ClusterAdapter& cluster, const std::string& key,
                      SimTime scaledUpAt, std::uint64_t epoch);
  /// ReadinessObserver: wake the poll parked on (service, cluster), if any.
  void onReadinessChanged(ClusterAdapter& cluster,
                          const std::string& serviceName) override;
  void park(PendingDeploy& deploy, SimTime scaledUpAt);
  void unpark(PendingDeploy& deploy);
  void armPhaseTimer(const ServiceModelPtr& service, ClusterAdapter& cluster,
                     const std::string& key, std::uint64_t epoch);
  /// Retry after backoff if budget remains, else finish with `error`.
  void onPhaseFailure(const ServiceModelPtr& service,
                      ClusterAdapter& cluster, const std::string& key,
                      std::uint64_t epoch, Error error);
  void finishDeploy(const std::string& key, Result<Endpoint> result);
  void recordPhase(const ServiceModel& service, ClusterAdapter& cluster,
                   const char* phase, SimTime duration);
  /// Emit a completed phase span nested under `key`'s deploy span.
  void tracePhase(const std::string& key, trace::TraceKey phase,
                  SimTime start, bool ok);
  /// The governor's breaker for `cluster`, or nullptr when breakers are off
  /// or the cluster is the cloud (never broken -- it is the fallback
  /// target, like quarantine).
  overload::CircuitBreaker* breakerFor(const ClusterAdapter& cluster);
  /// Answer `cb` with a degraded redirect to a ready cloud instance.
  /// Returns false (and leaves `cb` uncalled) when no such instance exists.
  bool answerFromCloud(const ServiceModel& service, Ipv4 client,
                       const ResolveCallback& cb, bool shed,
                       trace::RequestId rid, trace::TraceKey why);

  /// Per-cluster instruments, registered at construction for every
  /// adapter (on first use for any other cluster).  Counters live in
  /// ledger_; the phase histograms only exist with caller telemetry.
  struct ClusterTelemetry {
    std::map<std::string, telemetry::Histogram*> phases;  // by phase name
    telemetry::Counter* deployments = nullptr;
    telemetry::Counter* background = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* fallbacks = nullptr;
    telemetry::Counter* quarantines = nullptr;
    telemetry::Counter* decisionsFast = nullptr;
    telemetry::Counter* decisionsBest = nullptr;
  };
  ClusterTelemetry& clusterTelemetry(const std::string& cluster);
  std::uint64_t total(telemetry::Counter* ClusterTelemetry::*counter) const;

  Simulation& sim_;
  /// The control lane: all deployment state (pending_, adapters, the
  /// schedulers) is single-threaded by construction.  resolve() asserts it
  /// runs on the thread that built the Dispatcher -- the simulation
  /// thread, the only thread that touches the controller.
  const std::thread::id controlThread_;
  FlowMemory& memory_;
  GlobalScheduler& scheduler_;
  std::vector<ClusterAdapter*> adapters_;
  metrics::Recorder* recorder_;
  trace::TraceRecorder* trace_;
  overload::OverloadGovernor* governor_;
  const ProximityProvider* proximity_ = nullptr;
  std::map<std::string, ClusterTelemetry> clusterTelemetry_;
  DispatcherOptions options_;
  std::unique_ptr<LocalScheduler> localScheduler_;
  telemetry::MetricsRegistry* telemetry_;
  /// Counter store: `telemetry`, or ownRegistry_ when that is null.
  telemetry::MetricsRegistry ownRegistry_;
  telemetry::MetricsRegistry& ledger_;
  std::map<std::string, PendingDeploy> pending_;
  /// Source of PendingDeploy::epoch values.
  std::uint64_t nextAttempt_ = 0;
  /// pending_ entries with `parked` set.
  std::size_t parkedWaiters_ = 0;
  BackgroundReadyListener backgroundListener_;
};

}  // namespace edgesim::core
