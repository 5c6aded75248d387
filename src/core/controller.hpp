// EdgeController: the SDN controller for transparent access to edge
// services with distributed on-demand deployment.
//
// This class is the C++ counterpart of the paper's Ryu-based controller.
// It owns the ServiceRegistry (registered service addresses -> annotated
// definitions), the FlowMemory (§V), the Dispatcher + Global Scheduler
// (fig. 6/7), and the OpenFlow interaction:
//
//   packet-in for a registered address
//     -> FlowMemory / Dispatcher / Scheduler decide the instance
//     -> (on-demand deployment phases if needed, §IV)
//     -> forward + reverse rewrite flows installed (fig. 2)
//     -> buffered packet(s) released toward the instance
//
//   packet-in for an unregistered address -> default route to the uplink.
//
//   flow-removed (idle) -> FlowMemory bookkeeping; when the last memorized
//   flow of a service instance expires, the instance is scaled down.
//
// Every request enters as a packet-in and runs one pipeline:
// beginRequest() counts the request, sets its deadline budget and opens its
// trace span; the packet-in is buffered and resolved through
// Dispatcher::resolve (which re-checks that a memorized instance is ready);
// recordOutcome() is the single exit that counts shed / failed / resolved /
// degraded, observes the latency histogram, feeds the SLO watchdog and ends
// the span; then the redirect flows are installed and the buffer released.
//
// Like the paper's Ryu controller, this is one event loop: every method
// runs on the simulation thread, which owns all controller state.
//
// Every count lives in one place, a MetricsRegistry (DESIGN §9 "One
// ledger"): the caller's, or a private one when the caller passes none.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/service_catalog.hpp"
#include "openflow/switch.hpp"
#include "overload/governor.hpp"
#include "telemetry/slo_watchdog.hpp"

namespace edgesim::core {

struct ControllerOptions {
  /// Global Scheduler to load (registered name, §IV-B).
  std::string scheduler = "proximity";
  /// Idle timeout for switch flow entries -- kept short (§V).
  SimTime switchIdleTimeout = SimTime::seconds(5.0);
  /// Idle timeout for memorized flows -- longer than the switch's.
  SimTime memoryIdleTimeout = SimTime::seconds(60.0);
  /// Scan period for FlowMemory expiry.
  SimTime memoryScanPeriod = SimTime::seconds(1.0);
  /// Scale idle services down when their last memorized flow expires.
  bool scaleDownIdleServices = true;
  /// Remove a scaled-down service's containers / K8s objects after this
  /// much further idle time (fig. 4 Remove phase); zero disables removal.
  SimTime removeIdleAfter = SimTime::zero();
  /// Also delete the cached images when removing (fig. 4 Delete phase --
  /// "optionally, but unlikely ... if disk space is scarce").
  bool deleteImagesOnRemove = false;
  /// Port-ready polling interval (§VI).
  SimTime portPollInterval = SimTime::millis(50);
  /// Budget for one deployment attempt (Dispatcher deployTimeout).
  SimTime deployTimeout = SimTime::seconds(120.0);
  /// Per-phase watchdog passed to the Dispatcher; zero disables.
  SimTime phaseTimeout = SimTime::zero();
  /// Retry budget + backoff for failed deployment phases.
  int deployRetries = 3;
  SimTime retryBackoff = SimTime::millis(200);
  /// Degrade clients to the cloud when an edge deployment exhausts its
  /// retries (instead of failing the request).
  bool cloudFallback = true;
  /// Quarantine window for a cluster that exhausted its retries; zero
  /// disables quarantine.
  SimTime quarantineCooldown = SimTime::seconds(30.0);
  /// Per-cluster Local Scheduler injected by the annotator ("" = default).
  /// This names the *placement-time* scheduler (K8s schedulerName).
  std::string localScheduler;
  /// Request-time instance choice within a cluster ("first",
  /// "instance-round-robin", "client-hash").
  std::string instancePolicy = "first";
  /// Overload governor: deadline budgets, deploy tokens, per-cluster
  /// circuit breakers, brownout.  Disabled by default -- nothing is
  /// constructed and every hot-path hook is a null check.
  overload::OverloadOptions overload;
  /// Reliable FlowMods: every redirect install carries a barrier-style ack
  /// (openflow::OpenFlowSwitch::FlowModAck); un-acked installs are retried
  /// with the capped backoff below, and after exhausting the retries the
  /// flow fails over to the service's degraded cloud redirect so requests
  /// are never blackholed.  On a fault-free channel every ack arrives
  /// before its deadline, so this only arms-and-cancels inert timers and
  /// the determinism goldens stay bytewise identical.
  bool reliableFlowMods = true;
  /// Ack deadline for one FlowMod round trip (must exceed 2x the switch
  /// channel latency plus any stall faults you want tolerated in-band).
  SimTime flowModAckTimeout = SimTime::millis(50);
  /// Resend budget for un-acked installs; resend N waits
  /// retryBackoff * 2^(N-1), capped at 10s (the dispatcher's RetryPolicy).
  int flowModRetries = 3;
  /// Anti-entropy rule reconciliation sweep period; zero = off (default).
  /// See core::RuleReconciler.
  SimTime reconcilePeriod = SimTime::zero();
  /// Give up on a reconcile sweep's flow-stats round trips after this long
  /// (a lossy channel can eat the request or the reply).
  SimTime reconcileSweepTimeout = SimTime::millis(250);

  /// One key per option except memoryScanPeriod, durations in `_ms` (the
  /// overload_* keys go to OverloadOptions::fromConfig).  An unknown key,
  /// an unparseable value or a negative number is an error naming the key.
  static Result<ControllerOptions> fromConfig(const Config& config);
};

/// Priority of the per-client redirect rewrite entries (fig. 2); the
/// RuleReconciler scopes its diff to entries at or above this priority so
/// background routing (priority 1) and coarse uplink flows (priority 10)
/// are never treated as drift.
inline constexpr std::uint16_t kRedirectPriority = 100;

/// Outcome of one transparent handover (EdgeController::requestHandover).
struct HandoverResult {
  /// False when the request was a no-op -- nothing memorized for the flow,
  /// the flow already lives on the target cluster, or a handover for the
  /// same (client, service) is still in flight.  No-ops are not counted in
  /// the handover accounting.
  bool started = false;
  /// The flow was re-steered onto the requested target cluster.
  bool completed = false;
  /// The handover could not land on the target (governor veto, exhausted
  /// deployment, unknown cluster, flow expired mid-handover) and was
  /// degraded to the cloud -- or, with no cloud instance, the flow kept its
  /// old binding (never stranded either way).
  bool abortedToCloud = false;
  /// Where the flow points after the handover.
  Endpoint instance;
  std::string cluster;
  /// Re-steer commit (flow-mods sent) -> new forward flow confirmed in the
  /// switch; bounded by one rule-install RTT for warm handovers.  Zero when
  /// nothing was re-installed (no-op, expired flow, no attached switch).
  SimTime continuityGap;
  /// requestHandover() -> settled, including any target-cluster deployment.
  SimTime latency;
  /// "warm" / "deployed" on success; the abort reason otherwise.
  const char* reason = "";
};

/// Static topology knowledge for one attached switch: which port reaches
/// which host IP, and which port leads toward the cloud/uplink.
struct SwitchTopology {
  std::map<Ipv4, PortId> hostPorts;
  PortId uplinkPort = kInvalidPort;

  PortId portFor(Ipv4 ip) const {
    const auto it = hostPorts.find(ip);
    return it == hostPorts.end() ? uplinkPort : it->second;
  }
};

class RuleReconciler;

class EdgeController : public openflow::ControllerApp {
 public:
  /// `telemetry` (optional) holds every controller, dispatcher and
  /// governor counter and adds the gated instruments: warm/cold resolve
  /// latency histograms, handover histograms, FlowMemory series, and
  /// per-cluster dispatcher phase histograms.  Without it the counters go
  /// to a private registry.  Handles are resolved once up front.
  /// `recorder` (optional) goes to the dispatcher for its phase samples.
  EdgeController(Simulation& sim, ControllerOptions options,
                 std::vector<ClusterAdapter*> adapters,
                 const AppProfileRegistry& profiles,
                 metrics::Recorder* recorder = nullptr,
                 trace::TraceRecorder* trace = nullptr,
                 telemetry::MetricsRegistry* telemetry = nullptr);
  ~EdgeController() override;

  // ---- setup ------------------------------------------------------------
  /// Register an edge service from its YAML definition (§V).  The service
  /// is annotated, converted, and (if a cloud adapter exists) hosted in
  /// the cloud.  `tag` labels metric series.
  Result<const ServiceModel*> registerService(const std::string& yaml,
                                              Endpoint serviceAddress,
                                              const std::string& tag);

  /// Attach a switch with its port topology; installs background routing
  /// flows (client/host reachability) and becomes its controller app.
  void attachSwitch(openflow::OpenFlowSwitch& sw, SwitchTopology topology);

  // ---- ControllerApp ------------------------------------------------------
  void onPacketIn(openflow::OpenFlowSwitch& sw,
                  const openflow::PacketIn& event) override;
  void onFlowRemoved(openflow::OpenFlowSwitch& sw,
                     const openflow::FlowRemoved& event) override;

  // ---- mobility / transparent handover ------------------------------------
  using HandoverCallback = std::function<void(const HandoverResult&)>;

  /// Transparently re-steer the memorized flow (client, serviceAddress)
  /// onto `targetCluster` while the old instance keeps serving until the
  /// switchover: idle -> re-steer -> settle.  A ready instance at the
  /// target makes the handover *warm* -- FlowMemory is re-bound and the
  /// forward redirect flow is atomically replaced (install-or-replace
  /// FlowMod), so the continuity gap is one rule-install RTT; with no
  /// instance the target is deployed first (the old binding keeps
  /// answering meanwhile).  A breaker-open or browned-out target, an
  /// unknown cluster, or an exhausted deployment degrades the handover to
  /// the cloud instead of stranding the flow.  Exact accounting:
  ///   handoversStarted() == handoversCompleted()
  ///                         + handoversAbortedToCloud()
  void requestHandover(Ipv4 client, Endpoint serviceAddress,
                       const std::string& targetCluster,
                       HandoverCallback cb = nullptr);

  /// Per-client proximity override for the Global Scheduler's distance
  /// ranks (mobility attachment table).  Sim thread, before traffic;
  /// `provider` must outlive the controller or be cleared with nullptr.
  void setProximityProvider(const ProximityProvider* provider) {
    dispatcher_->setProximityProvider(provider);
  }

  std::uint64_t handoversStarted() const {
    return ledger_.handoversStarted.value();
  }
  std::uint64_t handoversCompleted() const {
    return ledger_.handoversCompleted.value();
  }
  std::uint64_t handoversAbortedToCloud() const {
    return ledger_.handoversAborted.value();
  }

  /// The overload governor, or nullptr when options.overload.enabled was
  /// false.
  overload::OverloadGovernor* governor() { return governor_.get(); }

  // ---- introspection ------------------------------------------------------
  /// The model registered at `address`, or nullptr.
  const ServiceModelPtr& serviceAt(Endpoint address) const;

  /// Proactive deployment hook (§VII: "more so when combined with good
  /// prediction for proactive deployment"): deploy the service on the
  /// named cluster ahead of any request; `cb` optional, fires when the
  /// instance answers its port.
  Status predeploy(Endpoint serviceAddress, const std::string& clusterName,
                   std::function<void(Result<Endpoint>)> cb = nullptr);

  FlowMemory& flowMemory() { return memory_; }
  Dispatcher& dispatcher() { return *dispatcher_; }
  GlobalScheduler& scheduler() { return *scheduler_; }
  /// Packet-ins received.
  std::uint64_t packetInCount() const { return ledger_.packetIns.value(); }
  /// Every request that entered the pipeline (the first packet-in of a
  /// flow).  At quiescence the accounting invariant holds:
  ///   requestsSubmitted() == requestsResolved() + requestsFailed()
  ///                          + requestsShed()
  std::uint64_t requestsSubmitted() const { return ledger_.submitted.value(); }
  /// Requests the governor terminated early: deadline-budget expiries
  /// answered fail-fast from the cloud by the dispatcher.  Disjoint from
  /// resolved and failed.
  std::uint64_t requestsShed() const { return ledger_.shed.value(); }
  std::uint64_t requestsResolved() const { return ledger_.resolved.value(); }
  std::uint64_t requestsFailed() const { return ledger_.failed.value(); }
  /// Resolves answered with a degraded (cloud-fallback) redirect, which
  /// count toward requestsResolved() as well, plus installs failed over to
  /// the cloud.
  std::uint64_t requestsDegraded() const { return ledger_.degraded.value(); }
  std::uint64_t scaleDowns() const { return ledger_.scaleDowns.value(); }
  std::uint64_t removals() const { return ledger_.removals.value(); }
  /// BEST deployments that became ready and triggered flow migration.
  std::uint64_t migrations() const { return ledger_.migrations.value(); }

  // ---- reliable installs (acked FlowMods) ---------------------------------
  /// Tracked FlowMods sent, counting every entry of every (re)send attempt.
  /// At quiescence the control-channel accounting invariant holds:
  ///   flowModsSent() == flowModsAcked() + flowModsTimedOut()
  std::uint64_t flowModsSent() const { return ledger_.flowModsSent.value(); }
  std::uint64_t flowModsAcked() const {
    return ledger_.flowModsAcked.value();
  }
  /// Tracked FlowMods whose ack missed its deadline (each is then retried
  /// or failed over; late acks of a timed-out attempt are discarded by
  /// epoch, never double-counted).
  std::uint64_t flowModsTimedOut() const {
    return ledger_.flowModsTimedOut.value();
  }
  /// Resend rounds triggered by ack timeouts.
  std::uint64_t flowModResends() const {
    return ledger_.flowModResends.value();
  }
  /// Installs that exhausted their resend budget and failed over to the
  /// degraded cloud redirect.
  std::uint64_t flowModFailovers() const {
    return ledger_.flowModFailovers.value();
  }
  /// Install transactions still waiting for acks (0 at quiescence).
  std::size_t pendingInstallCount() const { return pendingInstalls_.size(); }

  /// The end-of-run accounting invariants that do not hold, one line each
  /// (empty when all hold):
  ///   requestsSubmitted() == requestsResolved() + requestsFailed()
  ///                          + requestsShed()
  ///   flowModsSent() == flowModsAcked() + flowModsTimedOut(), with
  ///   pendingInstallCount() == 0
  ///   handoversStarted() == handoversCompleted()
  ///                         + handoversAbortedToCloud(), with no handover
  ///   in flight (each one still in flight is named)
  std::vector<std::string> ledgerViolations() const;

  // ---- rule reconciliation ------------------------------------------------
  /// The anti-entropy reconciler, or nullptr when reconcilePeriod was zero.
  RuleReconciler* reconciler() { return reconciler_.get(); }

  /// Switches this controller programs (reconciler sweep set).
  const std::map<openflow::OpenFlowSwitch*, SwitchTopology>& attachedSwitches()
      const {
    return switches_;
  }

  /// One memorized flow with the exact switch entries (cookie 0) the
  /// controller would install for it on `sw` -- FlowMemory's *intended*
  /// steering state, which the RuleReconciler diffs against the switch's
  /// actual table.
  struct IntendedFlow {
    Ipv4 client;
    Endpoint service;
    Endpoint instance;
    std::vector<openflow::FlowEntry> entries;
  };
  /// Intended flows for `sw`, sorted by (client, service) so sweep order is
  /// independent of FlowMemory's hash-table order.
  std::vector<IntendedFlow> intendedFlows(openflow::OpenFlowSwitch& sw) const;

  /// Re-install the redirect entries for a memorized flow the reconciler
  /// found missing; no-op (returns false) if the service is unknown.
  bool reinstallRedirect(openflow::OpenFlowSwitch& sw, Ipv4 client,
                         Endpoint serviceAddress, Endpoint instance);

  /// Attach an SLO watchdog; cold resolve completions are reported to it
  /// (service tag, sim-time latency, trace request ID) so breaches can name
  /// their worst offender.  Called from the sim thread before traffic.
  void setSloWatchdog(telemetry::SloWatchdog* watchdog) {
    watchdog_ = watchdog;
  }

 private:
  /// One request in the resolve pipeline, from beginRequest() to its single
  /// recordOutcome().
  struct RequestContext {
    ServiceModelPtr service;
    /// Trace identity: the request ID and its open "resolve" span.
    trace::RequestId rid = 0;
    trace::SpanId span = 0;
    /// Entry time; begin -> outcome is observed into the warm or cold
    /// latency histogram.
    SimTime startedAt;
    /// Absolute deadline budget (SimTime::max() = none).
    SimTime deadline = SimTime::max();
  };
  struct PendingRequest {
    openflow::OpenFlowSwitch* sw = nullptr;
    std::vector<std::pair<openflow::BufferId, Packet>> buffered;
    bool resolving = false;
    RequestContext request;
  };
  struct PendingKey {
    Ipv4 client;
    Endpoint service;
    bool operator<(const PendingKey& other) const {
      if (client != other.client) return client < other.client;
      return service < other.service;
    }
  };

  /// One in-flight handover per (client, service): idle -> re-steer ->
  /// settle.  All state transitions run on the simulation thread.
  struct ActiveHandover {
    SimTime startedAt;
    /// Re-steer commit time (flow-mods sent); the continuity gap runs from
    /// here to the switch-confirmed settle.
    SimTime commitAt;
    Endpoint oldInstance;
    std::string oldCluster;
    std::string targetCluster;
    trace::RequestId rid = 0;
    trace::SpanId span = 0;
    HandoverCallback cb;
  };

  /// One tracked install transaction (reliable FlowMods): the entries to
  /// (re)send, the acks still outstanding, and the deadline timer.  Keyed
  /// by the install cookie in pendingInstalls_; sim thread only.
  struct PendingInstall {
    openflow::OpenFlowSwitch* sw = nullptr;
    Ipv4 client;
    Endpoint service;
    Endpoint instance;
    std::vector<openflow::FlowEntry> entries;
    int outstanding = 0;  // acks missing from the current attempt
    int attempts = 0;     // send attempts so far (1 = initial send)
    std::uint64_t epoch = 0;  // bumped per attempt; stale acks are ignored
    EventHandle deadline;
  };

  void handleRegisteredService(openflow::OpenFlowSwitch& sw,
                               const openflow::PacketIn& event,
                               const ServiceModelPtr& model);
  void handleUnregistered(openflow::OpenFlowSwitch& sw,
                          const openflow::PacketIn& event);
  /// The forward (+ reverse) redirect entries for (client, service ->
  /// instance) on `sw`, cookie 0: the canonical shape shared by the
  /// install path and the reconciler's intended-state diff.
  std::vector<openflow::FlowEntry> redirectEntries(
      openflow::OpenFlowSwitch& sw, Ipv4 client, const ServiceModel& service,
      Endpoint instance) const;
  /// Install (or atomically replace) the forward + reverse redirect flows
  /// for (client, service) -> instance; returns the cookie stamped on both
  /// entries so callers can confirm the install in a flow-stats snapshot.
  /// With reliableFlowMods the entries are sent tracked (ack deadline,
  /// capped-backoff resends, cloud failover on exhaustion).
  std::uint64_t installRedirectFlows(openflow::OpenFlowSwitch& sw, Ipv4 client,
                                     const ServiceModel& service,
                                     Endpoint instance);
  // ---- reliable-install state machine (sim thread) ------------------------
  void sendTrackedInstall(std::uint64_t cookie);
  void onFlowModAck(std::uint64_t cookie, std::uint64_t epoch);
  void onFlowModDeadline(std::uint64_t cookie);
  /// Resend budget exhausted: re-point FlowMemory (and, best-effort, the
  /// switch) at the degraded cloud redirect so the flow is never blackholed.
  void failOverInstall(std::uint64_t cookie);
  // ---- handover state machine (sim thread) --------------------------------
  /// Re-steer commit: re-bind FlowMemory and replace the redirect flows on
  /// every attached switch, then confirm via a flow-stats round trip.
  /// `degraded` marks an abort-to-cloud commit (counts aborted, not
  /// completed).
  void commitReSteer(const PendingKey& key, const ServiceModel& service,
                     Endpoint instance, const std::string& cluster,
                     bool degraded, const char* reason);
  void settleHandover(const PendingKey& key, const ServiceModel& service,
                      Endpoint instance, const std::string& cluster,
                      bool degraded, const char* reason);
  /// Degrade the handover to the service's cached cloud redirect (never
  /// strand the flow); with no cloud instance the old binding is kept.
  void abortHandoverToCloud(const PendingKey& key, const ServiceModel& service,
                            const char* reason);
  void finishHandover(const PendingKey& key, HandoverResult result);
  /// Settle the handover as aborted with the flow left on its old binding.
  void abortKeepingOldBinding(const PendingKey& key, const char* reason);
  void releaseBuffered(openflow::OpenFlowSwitch& sw, const PendingKey& key,
                       const ServiceModel& service, Endpoint instance);
  void dropBuffered(const PendingKey& key);
  // ---- the resolve pipeline -------------------------------------------------
  /// Entry step: count the request, set its deadline budget, open its
  /// trace request and "resolve" span.  `packet` is the packet-in that
  /// started it (bound to the flow and traced).
  RequestContext beginRequest(Ipv4 client, Endpoint serviceAddress,
                              ServiceModelPtr service, const Packet& packet,
                              SimTime now);
  /// Exit step, exactly once per beginRequest: count the outcome
  /// (shed when the redirect says so, else failed or resolved + degraded),
  /// observe the latency histogram, feed the SLO watchdog, end the span.
  void recordOutcome(const RequestContext& request,
                     const Result<Redirect>& result, SimTime now);
  void expireMemory();
  void finishExpiry();
  openflow::ActionList redirectActions(openflow::OpenFlowSwitch& sw,
                                       const ServiceModel& service,
                                       Endpoint instance) const;

  /// The controller's counters, registered eagerly at construction: its
  /// only count store.  Public accessors read these series.
  struct Ledger {
    explicit Ledger(telemetry::MetricsRegistry& registry);
    telemetry::Counter& packetIns;
    telemetry::Counter& submitted;
    telemetry::Counter& resolved;
    telemetry::Counter& failed;
    telemetry::Counter& shed;
    telemetry::Counter& degraded;
    telemetry::Counter& scaleDowns;
    telemetry::Counter& removals;
    telemetry::Counter& migrations;
    telemetry::Counter& handoversStarted;
    telemetry::Counter& handoversCompleted;
    telemetry::Counter& handoversAborted;
    telemetry::Counter& flowModsSent;
    telemetry::Counter& flowModsAcked;
    telemetry::Counter& flowModsTimedOut;
    telemetry::Counter& flowModResends;
    telemetry::Counter& flowModFailovers;
  };

  Simulation& sim_;
  ControllerOptions options_;
  const AppProfileRegistry& profiles_;
  trace::TraceRecorder* trace_;
  telemetry::MetricsRegistry* telemetry_;
  /// Counter store when the caller passed no registry.
  telemetry::MetricsRegistry ownRegistry_;
  Ledger ledger_;
  telemetry::SloWatchdog* watchdog_ = nullptr;
  // Latency histograms, resolved once at construction (nullptr when
  // telemetry is off).
  telemetry::Histogram* warmHist_ = nullptr;
  telemetry::Histogram* hoLatencyHist_ = nullptr;
  telemetry::Histogram* hoGapHist_ = nullptr;
  /// Per-service cold-resolve histograms, filled at registerService.
  std::unordered_map<Endpoint, telemetry::Histogram*> coldHists_;
  FlowMemory memory_;
  /// Created before the dispatcher (which borrows it).
  std::unique_ptr<overload::OverloadGovernor> governor_;
  std::unique_ptr<GlobalScheduler> scheduler_;
  std::unique_ptr<Dispatcher> dispatcher_;
  /// Per-service cloud redirect, captured at registerService from
  /// CloudAdapter::hostService: where install failover and aborted
  /// handovers send a flow.
  std::unordered_map<Endpoint, Redirect> cloudRedirects_;
  std::vector<ClusterAdapter*> adapters_;
  std::unordered_map<Endpoint, ServiceModelPtr> services_;
  std::map<openflow::OpenFlowSwitch*, SwitchTopology> switches_;
  std::map<PendingKey, PendingRequest> pendingRequests_;
  std::map<PendingKey, ActiveHandover> handovers_;
  /// In-flight tracked installs by cookie.
  std::map<std::uint64_t, PendingInstall> pendingInstalls_;
  /// Install cookie source.
  std::uint64_t nextCookie_ = 1;
  /// Redirects the controller believes are live on each switch, keyed by
  /// (switch, client, service) and valued with the latest install cookie.
  /// Set when redirect flows are (re)sent, erased when the switch's
  /// FlowRemoved for that cookie is delivered or the memorized flow
  /// expires.  FlowMemory deliberately outlives switch idle expiry (warm
  /// resolution after the entry aged out, §V), so the reconciler must not
  /// treat every memorized flow as intended switch state: only entries in
  /// this map count.  An entry that vanished *without* a delivered
  /// FlowRemoved (restart wipe, lost notification) stays believed-installed
  /// and is therefore detected as drift.
  std::map<std::tuple<const openflow::OpenFlowSwitch*, Ipv4, Endpoint>,
           std::uint64_t>
      believedInstalled_;
  /// Anti-entropy sweeper (options.reconcilePeriod > 0), started in the
  /// constructor; declared after switches_/memory_ so it tears down first.
  std::unique_ptr<RuleReconciler> reconciler_;
  PeriodicTimer memoryScan_;
  /// Per switch, the `since` of the next flow-activity request: the switch
  /// clock of the last reply that was delivered (DESIGN §8).  A lost
  /// request or reply leaves it alone, so the next delivered reply covers
  /// the lost window again.
  std::map<const openflow::OpenFlowSwitch*, SimTime> activitySince_;
  /// (service address, cluster) -> when the service was scaled down; used
  /// to drive the Remove/Delete phases after prolonged idle.
  std::map<std::pair<Endpoint, std::string>, SimTime> scaledDownAt_;
};

}  // namespace edgesim::core
