#include "core/controller.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/rule_reconciler.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace edgesim::core {

using openflow::ActionList;
using openflow::BufferId;
using openflow::FlowEntry;
using openflow::FlowMatch;
using openflow::OpenFlowSwitch;
using openflow::OutputAction;
using openflow::PacketIn;
using openflow::SetFieldAction;

Result<ControllerOptions> ControllerOptions::fromConfig(
    const Config& config) {
  ControllerOptions options;
  Config overloadKeys;
  Config ownKeys;
  for (const auto& [key, value] : config.entries()) {
    (key.rfind("overload_", 0) == 0 ? overloadKeys : ownKeys).set(key, value);
  }
  auto overload = overload::OverloadOptions::fromConfig(overloadKeys);
  if (!overload.ok()) return overload.error();
  options.overload = std::move(overload).value();

  ConfigReader reader(ownKeys);
  reader.read("scheduler", options.scheduler);
  reader.readMillis("switch_idle_timeout_ms", options.switchIdleTimeout);
  reader.readMillis("memory_idle_timeout_ms", options.memoryIdleTimeout);
  reader.read("scale_down_idle", options.scaleDownIdleServices);
  reader.readMillis("remove_idle_after_ms", options.removeIdleAfter);
  reader.read("delete_images_on_remove", options.deleteImagesOnRemove);
  reader.readMillis("port_poll_interval_ms", options.portPollInterval);
  reader.readMillis("deploy_timeout_ms", options.deployTimeout);
  reader.readMillis("phase_timeout_ms", options.phaseTimeout);
  reader.read("deploy_retries", options.deployRetries);
  reader.readMillis("retry_backoff_ms", options.retryBackoff);
  reader.read("cloud_fallback", options.cloudFallback);
  reader.readMillis("quarantine_cooldown_ms", options.quarantineCooldown);
  reader.read("local_scheduler", options.localScheduler);
  reader.read("instance_policy", options.instancePolicy);
  reader.read("reliable_flow_mods", options.reliableFlowMods);
  reader.readMillis("flow_mod_ack_timeout_ms", options.flowModAckTimeout);
  reader.read("flow_mod_retries", options.flowModRetries);
  // Reconciliation is keyed twice: `reconcile_enabled: true` turns it on at
  // the default 1s period, `reconcile_period_ms` sets (and implies) it.
  bool reconcileEnabled = false;
  reader.read("reconcile_enabled", reconcileEnabled);
  reader.readMillis("reconcile_period_ms", options.reconcilePeriod);
  if (reconcileEnabled && options.reconcilePeriod == SimTime::zero()) {
    options.reconcilePeriod = SimTime::seconds(1.0);
  }
  reader.readMillis("reconcile_sweep_timeout_ms",
                    options.reconcileSweepTimeout);
  if (Status status = reader.finish(); !status.ok()) return status.error();
  return options;
}

EdgeController::Ledger::Ledger(telemetry::MetricsRegistry& registry)
    : packetIns(registry.counter("edgesim_packet_ins_total")),
      submitted(registry.counter("edgesim_requests_submitted_total")),
      resolved(registry.counter("edgesim_requests_total",
                                {{"outcome", "resolved"}})),
      failed(registry.counter("edgesim_requests_total",
                              {{"outcome", "failed"}})),
      shed(registry.counter("edgesim_requests_total", {{"outcome", "shed"}})),
      degraded(registry.counter("edgesim_requests_total",
                                {{"outcome", "degraded"}})),
      scaleDowns(registry.counter("edgesim_scale_downs_total")),
      removals(registry.counter("edgesim_removals_total")),
      migrations(registry.counter("edgesim_migrations_total")),
      handoversStarted(registry.counter("edgesim_handovers_total",
                                        {{"outcome", "started"}})),
      handoversCompleted(registry.counter("edgesim_handovers_total",
                                          {{"outcome", "completed"}})),
      handoversAborted(registry.counter("edgesim_handovers_total",
                                        {{"outcome", "aborted_to_cloud"}})),
      flowModsSent(
          registry.counter("edgesim_ctrl_channel_flow_mods_sent_total")),
      flowModsAcked(registry.counter("edgesim_ctrl_channel_acks_total",
                                     {{"result", "acked"}})),
      flowModsTimedOut(registry.counter("edgesim_ctrl_channel_acks_total",
                                        {{"result", "timeout"}})),
      flowModResends(registry.counter("edgesim_ctrl_channel_retries_total")),
      flowModFailovers(
          registry.counter("edgesim_ctrl_channel_failovers_total")) {}

EdgeController::EdgeController(Simulation& sim, ControllerOptions options,
                               std::vector<ClusterAdapter*> adapters,
                               const AppProfileRegistry& profiles,
                               metrics::Recorder* recorder,
                               trace::TraceRecorder* trace,
                               telemetry::MetricsRegistry* telemetry)
    : sim_(sim),
      options_(options),
      profiles_(profiles),
      trace_(trace),
      telemetry_(telemetry),
      ledger_(telemetry != nullptr ? *telemetry : ownRegistry_),
      memory_(options.memoryIdleTimeout, telemetry),
      adapters_(std::move(adapters)) {
  if (telemetry_ != nullptr) {
    warmHist_ = &telemetry_->histogram("edgesim_resolve_seconds",
                                       {{"path", "warm"}});
    hoLatencyHist_ =
        &telemetry_->histogram("edgesim_handover_latency_seconds");
    hoGapHist_ =
        &telemetry_->histogram("edgesim_handover_continuity_gap_seconds");
  }
  if (options_.overload.enabled) {
    governor_ = std::make_unique<overload::OverloadGovernor>(
        options_.overload, telemetry_);
  }
  auto scheduler =
      SchedulerRegistry::instance().create(options_.scheduler, Config());
  ES_ASSERT_MSG(scheduler.ok(), "unknown scheduler in controller options");
  scheduler_ = std::move(scheduler).value();
  if (governor_ != nullptr && options_.overload.breakerEnabled) {
    // Circuit breakers veto clusters at scheduling time, next to (and
    // before) quarantine.
    scheduler_->setAvailabilityFilter(
        [gov = governor_.get()](const std::string& cluster, SimTime now) {
          return gov->clusterAllowed(cluster, now);
        });
  }

  DispatcherOptions dispatcherOptions;
  dispatcherOptions.portPollInterval = options_.portPollInterval;
  dispatcherOptions.instancePolicy = options_.instancePolicy;
  dispatcherOptions.deployTimeout = options_.deployTimeout;
  dispatcherOptions.phaseTimeout = options_.phaseTimeout;
  dispatcherOptions.retry.maxRetries = options_.deployRetries;
  dispatcherOptions.retry.initialBackoff = options_.retryBackoff;
  dispatcherOptions.cloudFallback = options_.cloudFallback;
  dispatcherOptions.quarantineCooldown = options_.quarantineCooldown;
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, memory_, *scheduler_, adapters_, recorder, dispatcherOptions,
      trace_, telemetry_, governor_.get());

  // §IV-A2: once a BEST (background) deployment is running, future
  // requests must go there.  Forget memorized flows that point elsewhere;
  // switch flows of in-flight connections are left to finish and idle out,
  // but each client's next packet-in re-schedules onto the new instance.
  dispatcher_->setBackgroundReadyListener(
      [this](Endpoint service, const std::string& cluster, Endpoint) {
        memory_.forgetServiceExcept(service, cluster);
        ledger_.migrations.add();
        ES_INFO("controller", "BEST instance ready on %s; future requests "
                "for %s will be re-scheduled there",
                cluster.c_str(), service.toString().c_str());
      });

  memoryScan_.start(sim_, options_.memoryScanPeriod, [this] {
    expireMemory();
    return true;
  }, options_.memoryScanPeriod);

  if (options_.reconcilePeriod > SimTime::zero()) {
    ReconcilerOptions reconcilerOptions;
    reconcilerOptions.period = options_.reconcilePeriod;
    reconcilerOptions.sweepTimeout = options_.reconcileSweepTimeout;
    reconciler_ = std::make_unique<RuleReconciler>(
        sim_, *this, reconcilerOptions, telemetry_, trace_);
    reconciler_->start();
  }
}

EdgeController::~EdgeController() { reconciler_.reset(); }

// ---- the resolve pipeline ---------------------------------------------------

EdgeController::RequestContext EdgeController::beginRequest(
    Ipv4 client, Endpoint serviceAddress, ServiceModelPtr service,
    const Packet& packet, SimTime now) {
  ledger_.submitted.add();
  RequestContext request;
  request.service = std::move(service);
  request.startedAt = now;
  // The deadline budget starts here: it rides through the FlowMemory
  // lookup and the dispatcher's deployment wait.
  if (governor_ != nullptr &&
      governor_->options().requestBudget > SimTime::zero()) {
    request.deadline = now + governor_->options().requestBudget;
  }
  if (trace_ == nullptr || !trace_->enabled()) return request;
  // The request ID is allocated here, at entry: everything the request
  // triggers downstream (FlowMemory lookup, scheduler decision, deployment
  // phases, flow install) is stamped with it.  Binding the flow joins the
  // client-side timecurl measurement to the request.
  request.rid = trace_->newRequest();
  trace_->bindFlow(client, serviceAddress, request.rid);
  trace_->instant(request.rid, "packet-in", "controller", now,
                  {{"client", client},
                   {"service", serviceAddress},
                   {"packet", packet.header()}});
  request.span = trace_->beginSpan(request.rid, "resolve", "controller", now,
                                   {{"service", request.service->uniqueName}});
  return request;
}

std::vector<std::string> EdgeController::ledgerViolations() const {
  std::vector<std::string> violations;
  const auto count = [](std::uint64_t n) {
    return static_cast<unsigned long long>(n);
  };
  if (requestsSubmitted() !=
      requestsResolved() + requestsFailed() + requestsShed()) {
    violations.push_back(strprintf(
        "requests: submitted %llu != resolved %llu + failed %llu + shed %llu",
        count(requestsSubmitted()), count(requestsResolved()),
        count(requestsFailed()), count(requestsShed())));
  }
  if (flowModsSent() != flowModsAcked() + flowModsTimedOut() ||
      pendingInstallCount() != 0) {
    violations.push_back(strprintf(
        "flow mods: sent %llu != acked %llu + timed out %llu, or %zu "
        "installs pending",
        count(flowModsSent()), count(flowModsAcked()),
        count(flowModsTimedOut()), pendingInstallCount()));
  }
  if (handoversStarted() !=
          handoversCompleted() + handoversAbortedToCloud() ||
      !handovers_.empty()) {
    std::string inFlight;
    for (const auto& [key, handover] : handovers_) {
      inFlight += strprintf(" %s->%s (%s to %s)",
                            key.client.toString().c_str(),
                            key.service.toString().c_str(),
                            handover.oldCluster.c_str(),
                            handover.targetCluster.c_str());
    }
    violations.push_back(strprintf(
        "handovers: started %llu != completed %llu + aborted %llu, or %zu "
        "in flight:%s",
        count(handoversStarted()), count(handoversCompleted()),
        count(handoversAbortedToCloud()), handovers_.size(),
        inFlight.empty() ? " none" : inFlight.c_str()));
  }
  return violations;
}

void EdgeController::recordOutcome(const RequestContext& request,
                                   const Result<Redirect>& result,
                                   SimTime now) {
  const char* name = request.service->uniqueName.c_str();
  if (!result.ok()) {
    ledger_.failed.add();
    ES_WARN("controller", "resolve failed for %s: %s", name,
            result.error().toString().c_str());
    if (request.span != 0) {
      trace_->endSpan(request.span, now,
                      {{"ok", "false"}, {"error", result.error()}});
    }
    return;
  }
  const Redirect& redirect = result.value();
  if (redirect.shed) {
    // Terminated early by the governor: the redirect still points the
    // client at the cloud, but the request counts as shed, not resolved.
    ledger_.shed.add();
  } else {
    ledger_.resolved.add();
    if (redirect.degraded) {
      ledger_.degraded.add();
      ES_INFO("controller", "degraded resolve for %s -> cloud instance %s",
              name, redirect.instance.toString().c_str());
    }
    if (telemetry_ != nullptr) {
      const double seconds = (now - request.startedAt).toSeconds();
      if (redirect.fromMemory) {
        warmHist_->observe(seconds);
      } else {
        if (const auto it = coldHists_.find(request.service->address);
            it != coldHists_.end()) {
          it->second->observe(seconds);
        }
        if (watchdog_ != nullptr) {
          watchdog_->observeRequest(request.service->tag, seconds,
                                    request.rid);
        }
      }
    }
  }
  if (request.span != 0) {
    trace_->endSpan(request.span, now,
                    {{"ok", "true"},
                     {"instance", redirect.instance},
                     {"cluster", redirect.cluster},
                     {"from_memory", redirect.fromMemory ? "true" : "false"},
                     {"degraded", redirect.degraded ? "true" : "false"}});
  }
}

Result<const ServiceModel*> EdgeController::registerService(
    const std::string& yaml, Endpoint serviceAddress, const std::string& tag) {
  if (services_.count(serviceAddress) != 0) {
    return makeError(Errc::kAlreadyExists,
                     "service already registered at " +
                         serviceAddress.toString());
  }
  AnnotatorConfig annotatorConfig;
  annotatorConfig.localScheduler = options_.localScheduler;
  auto annotated = annotateServiceYaml(yaml, serviceAddress, annotatorConfig);
  if (!annotated.ok()) return annotated.error();

  auto model = buildServiceModel(annotated.value(), serviceAddress, profiles_);
  if (!model.ok()) return model.error();
  model.value().tag = tag;

  auto owned = std::make_shared<const ServiceModel>(std::move(model).value());
  // The "real" service exists in the cloud from day one -- that is what
  // the transparent approach redirects away from.  Its address doubles as
  // the failover target of installs and handovers that cannot land.
  for (auto* adapter : adapters_) {
    if (adapter->isCloud()) {
      const Endpoint cloudInstance =
          static_cast<CloudAdapter*>(adapter)->hostService(*owned);
      cloudRedirects_.emplace(serviceAddress,
                              Redirect{cloudInstance, adapter->name(), false});
    }
  }
  const ServiceModel* result = owned.get();
  services_.emplace(serviceAddress, std::move(owned));
  if (telemetry_ != nullptr) {
    coldHists_[serviceAddress] = &telemetry_->histogram(
        "edgesim_resolve_seconds",
        {{"path", "cold"}, {"service", result->tag}});
  }
  ES_INFO("controller", "registered service %s at %s (tag %s)",
          result->uniqueName.c_str(), serviceAddress.toString().c_str(),
          tag.c_str());
  return result;
}

void EdgeController::attachSwitch(OpenFlowSwitch& sw,
                                  SwitchTopology topology) {
  // Background reachability flows: plain routing to every known host at the
  // lowest priority, so only *first packets of registered services* (and
  // unknown destinations) reach the controller.
  for (const auto& [ip, port] : topology.hostPorts) {
    FlowEntry entry;
    entry.priority = 1;
    entry.match.ipDst = ip;
    entry.actions = {OutputAction{port}};
    sw.sendFlowMod(entry);
  }
  switches_.emplace(&sw, std::move(topology));
  sw.setController(this);
}

const ServiceModelPtr& EdgeController::serviceAt(Endpoint address) const {
  static const ServiceModelPtr kNone;
  const auto it = services_.find(address);
  return it == services_.end() ? kNone : it->second;
}

void EdgeController::onPacketIn(OpenFlowSwitch& sw, const PacketIn& event) {
  ledger_.packetIns.add();
  const Endpoint dst = event.packet.dstEndpoint();
  const ServiceModelPtr& service = serviceAt(dst);
  if (service == nullptr) {
    handleUnregistered(sw, event);
    return;
  }
  handleRegisteredService(sw, event, service);
}

void EdgeController::handleUnregistered(OpenFlowSwitch& sw,
                                        const PacketIn& event) {
  const auto topoIt = switches_.find(&sw);
  if (topoIt == switches_.end()) return;
  const SwitchTopology& topo = topoIt->second;
  const PortId out = topo.portFor(event.packet.ipDst);
  if (out == kInvalidPort) {
    ES_DEBUG("controller", "no route for %s; dropping",
             event.packet.summary().c_str());
    return;
  }
  // Install a coarse forwarding flow for this destination and release the
  // packet along it.
  FlowEntry entry;
  entry.priority = 10;
  entry.match.ipDst = event.packet.ipDst;
  entry.idleTimeout = options_.switchIdleTimeout;
  entry.actions = {OutputAction{out}};
  sw.sendFlowMod(entry);
  sw.sendPacketOut(event.bufferId, event.packet, entry.actions);
}

ActionList EdgeController::redirectActions(OpenFlowSwitch& sw,
                                           const ServiceModel& service,
                                           Endpoint instance) const {
  const SwitchTopology& topo = switches_.at(&sw);
  ActionList actions;
  if (instance != service.address) {
    actions.push_back(SetFieldAction::ipDst(instance.ip));
    actions.push_back(SetFieldAction::tcpDst(instance.port));
  }
  actions.push_back(OutputAction{topo.portFor(instance.ip)});
  return actions;
}

void EdgeController::handleRegisteredService(OpenFlowSwitch& sw,
                                             const PacketIn& event,
                                             const ServiceModelPtr& model) {
  const ServiceModel& service = *model;
  const Ipv4 client = event.packet.ipSrc;
  const PendingKey key{client, service.address};

  auto& pending = pendingRequests_[key];
  pending.sw = &sw;
  pending.buffered.emplace_back(event.bufferId, event.packet);
  if (pending.resolving) {
    // Duplicate packet-in (e.g. a retransmitted SYN) while deployment is in
    // progress: buffered, will be released with the first one.
    if (trace_ != nullptr) {
      trace_->instant(pending.request.rid, "packet-in-duplicate",
                      "controller", sim_.now(),
                      {{"buffer", std::uint64_t{event.bufferId}}});
    }
    return;
  }
  pending.resolving = true;
  pending.request =
      beginRequest(client, service.address, model, event.packet,
                   sim_.now());
  const RequestContext& request = pending.request;
  dispatcher_->resolve(
      model, client,
      [this, key, &sw, &service, request](Result<Redirect> result) {
        recordOutcome(request, result, sim_.now());
        if (!result.ok()) {
          dropBuffered(key);
          return;
        }
        const Redirect& redirect = result.value();
        if (trace_ != nullptr) {
          trace_->instant(request.rid, "flow-install", "controller",
                          sim_.now(),
                          {{"instance", redirect.instance},
                           {"cluster", redirect.cluster}});
        }
        installRedirectFlows(sw, key.client, service, redirect.instance);
        releaseBuffered(sw, key, service, redirect.instance);
      },
      request.rid, request.deadline);
}

std::vector<FlowEntry> EdgeController::redirectEntries(
    OpenFlowSwitch& sw, Ipv4 client, const ServiceModel& service,
    Endpoint instance) const {
  const SwitchTopology& topo = switches_.at(&sw);
  std::vector<FlowEntry> entries;

  // Forward: client -> registered address, rewritten toward the instance.
  FlowEntry fwd;
  fwd.priority = kRedirectPriority;
  fwd.match = FlowMatch::anyToService(service.address);
  fwd.match.ipSrc = client;
  fwd.idleTimeout = options_.switchIdleTimeout;
  fwd.notifyOnRemoval = true;
  fwd.actions = redirectActions(sw, service, instance);
  entries.push_back(std::move(fwd));

  // Reverse: instance -> client, source rewritten back to the registered
  // address so the redirect stays invisible (fig. 2).
  if (instance != service.address) {
    FlowEntry rev;
    rev.priority = kRedirectPriority;
    rev.match.ipSrc = instance.ip;
    rev.match.tcpSrc = instance.port;
    rev.match.ipDst = client;
    rev.match.ipProto = IpProto::kTcp;
    rev.idleTimeout = options_.switchIdleTimeout;
    rev.actions = {SetFieldAction::ipSrc(service.address.ip),
                   SetFieldAction::tcpSrc(service.address.port),
                   OutputAction{topo.portFor(client)}};
    entries.push_back(std::move(rev));
  }
  return entries;
}

std::uint64_t EdgeController::installRedirectFlows(OpenFlowSwitch& sw,
                                                   Ipv4 client,
                                                   const ServiceModel& service,
                                                   Endpoint instance) {
  const std::uint64_t cookie = nextCookie_++;
  std::vector<FlowEntry> entries = redirectEntries(sw, client, service,
                                                   instance);
  for (FlowEntry& entry : entries) entry.cookie = cookie;
  believedInstalled_[{&sw, client, service.address}] = cookie;

  if (!options_.reliableFlowMods) {
    for (FlowEntry& entry : entries) sw.sendFlowMod(std::move(entry));
    return cookie;
  }

  PendingInstall install;
  install.sw = &sw;
  install.client = client;
  install.service = service.address;
  install.instance = instance;
  install.entries = std::move(entries);
  pendingInstalls_.emplace(cookie, std::move(install));
  sendTrackedInstall(cookie);
  return cookie;
}

void EdgeController::sendTrackedInstall(std::uint64_t cookie) {
  const auto it = pendingInstalls_.find(cookie);
  if (it == pendingInstalls_.end()) return;
  PendingInstall& install = it->second;
  ++install.attempts;
  const std::uint64_t epoch = ++install.epoch;
  install.outstanding = static_cast<int>(install.entries.size());
  ledger_.flowModsSent.add(install.entries.size());
  for (const FlowEntry& entry : install.entries) {
    // Resends are safe because FlowMod is install-or-replace: a duplicate
    // upsert of the identical entry is a no-op apart from refreshed stats.
    install.sw->sendFlowMod(
        entry, [this, cookie, epoch] { onFlowModAck(cookie, epoch); });
  }
  install.deadline = sim_.schedule(
      options_.flowModAckTimeout, [this, cookie] { onFlowModDeadline(cookie); });
}

void EdgeController::onFlowModAck(std::uint64_t cookie, std::uint64_t epoch) {
  const auto it = pendingInstalls_.find(cookie);
  if (it == pendingInstalls_.end() || it->second.epoch != epoch) {
    // Ack of a superseded attempt (it already counted as timed out) or of
    // an install that settled; discarding keeps the accounting exact.
    return;
  }
  ledger_.flowModsAcked.add();
  if (--it->second.outstanding > 0) return;
  it->second.deadline.cancel();
  pendingInstalls_.erase(it);
}

void EdgeController::onFlowModDeadline(std::uint64_t cookie) {
  const auto it = pendingInstalls_.find(cookie);
  if (it == pendingInstalls_.end()) return;
  PendingInstall& install = it->second;
  // Every ack still missing is a timeout; bump the epoch immediately so a
  // late (stalled) ack of this attempt cannot also decrement the count.
  ++install.epoch;
  ledger_.flowModsTimedOut.add(install.outstanding);
  if (install.attempts <= options_.flowModRetries) {
    ledger_.flowModResends.add();
    RetryPolicy policy;
    policy.maxRetries = options_.flowModRetries;
    policy.initialBackoff = options_.retryBackoff;
    const SimTime backoff = policy.backoff(install.attempts - 1);
    ES_WARN("controller",
            "flow-mod ack timeout (cookie %llu, attempt %d); resending in "
            "%.0f ms",
            static_cast<unsigned long long>(cookie), install.attempts,
            backoff.toSeconds() * 1e3);
    if (trace_ != nullptr) {
      trace_->instant(0, "flowmod_retry", "controller", sim_.now(),
                      {{"cookie", cookie},
                       {"attempt",
                        static_cast<std::uint64_t>(install.attempts)}});
    }
    install.deadline =
        sim_.schedule(backoff, [this, cookie] { sendTrackedInstall(cookie); });
    return;
  }
  failOverInstall(cookie);
}

void EdgeController::failOverInstall(std::uint64_t cookie) {
  const auto it = pendingInstalls_.find(cookie);
  if (it == pendingInstalls_.end()) return;
  const PendingInstall install = std::move(it->second);
  pendingInstalls_.erase(it);
  ledger_.flowModFailovers.add();
  if (trace_ != nullptr) {
    trace_->instant(0, "flowmod_failover", "controller", sim_.now(),
                    {{"cookie", cookie}, {"service", install.service}});
  }
  const auto cloudIt = cloudRedirects_.find(install.service);
  const ServiceModel* service = serviceAt(install.service).get();
  if (cloudIt == cloudRedirects_.end() || service == nullptr) {
    // No cloud instance to degrade to: the memorized binding stays; the
    // client's TCP retransmissions re-trigger packet-in once the channel
    // heals, so the flow still is not permanently blackholed.
    ES_WARN("controller",
            "install %llu exhausted retries and no cloud redirect exists "
            "for %s",
            static_cast<unsigned long long>(cookie),
            install.service.toString().c_str());
    return;
  }
  const Redirect& cloud = cloudIt->second;
  ES_WARN("controller",
          "install %llu exhausted retries; degrading %s to cloud instance %s",
          static_cast<unsigned long long>(cookie),
          install.service.toString().c_str(),
          cloud.instance.toString().c_str());
  // Re-point FlowMemory so every later resolve answers from the cloud, and
  // push the cloud entries best-effort (untracked: during an outage these
  // die too, but the memorized cloud binding + TCP retransmission recover
  // the flow as soon as the channel heals).
  if (!memory_.rebind(install.client, install.service, cloud.instance,
                      cloud.cluster, sim_.now())) {
    memory_.upsert(install.client, install.service, cloud.instance,
                   cloud.cluster, sim_.now());
  }
  ledger_.degraded.add();
  std::vector<FlowEntry> entries =
      redirectEntries(*install.sw, install.client, *service, cloud.instance);
  for (FlowEntry& entry : entries) {
    entry.cookie = cookie;
    install.sw->sendFlowMod(std::move(entry));
  }
}

std::vector<EdgeController::IntendedFlow> EdgeController::intendedFlows(
    OpenFlowSwitch& sw) const {
  std::vector<IntendedFlow> intended;
  for (const MemorizedFlow& flow : memory_.snapshot()) {
    const ServiceModel* service = serviceAt(flow.service).get();
    if (service == nullptr) continue;
    // Only flows believed to be on the switch count as intended: a flow
    // whose entry aged out with a delivered FlowRemoved lives on in memory
    // (warm resolution, §V) but is NOT missing switch state.
    if (believedInstalled_.count({&sw, flow.client.ip, flow.service}) == 0) {
      continue;
    }
    IntendedFlow item;
    item.client = flow.client.ip;
    item.service = flow.service;
    item.instance = flow.instance;
    item.entries = redirectEntries(sw, item.client, *service, item.instance);
    intended.push_back(std::move(item));
  }
  // snapshot() walks a hash table; sort so sweep order (and therefore
  // repair traffic) is deterministic for a given memory state.
  std::sort(intended.begin(), intended.end(),
            [](const IntendedFlow& a, const IntendedFlow& b) {
              if (a.client != b.client) return a.client < b.client;
              return a.service < b.service;
            });
  return intended;
}

bool EdgeController::reinstallRedirect(OpenFlowSwitch& sw, Ipv4 client,
                                       Endpoint serviceAddress,
                                       Endpoint instance) {
  const ServiceModel* service = serviceAt(serviceAddress).get();
  if (service == nullptr || switches_.count(&sw) == 0) return false;
  installRedirectFlows(sw, client, *service, instance);
  return true;
}

void EdgeController::releaseBuffered(OpenFlowSwitch& sw, const PendingKey& key,
                                     const ServiceModel& service,
                                     Endpoint instance) {
  const auto it = pendingRequests_.find(key);
  if (it == pendingRequests_.end()) return;
  const ActionList actions = redirectActions(sw, service, instance);
  for (const auto& [bufferId, packet] : it->second.buffered) {
    sw.sendPacketOut(bufferId, packet, actions);
  }
  pendingRequests_.erase(it);
}

void EdgeController::dropBuffered(const PendingKey& key) {
  pendingRequests_.erase(key);
  // Buffered packets expire in the switch; TCP retransmission (or the
  // client's timeout) handles the rest.
}

void EdgeController::onFlowRemoved(OpenFlowSwitch& sw,
                                   const openflow::FlowRemoved& event) {
  // A removed forward flow whose entry saw recent traffic refreshes the
  // memorized flow: the client is still active, only the switch entry aged
  // out (short switch timeouts by design, §V).
  const auto& match = event.entry.match;
  if (!match.ipSrc || !match.ipDst || !match.tcpDst) return;
  const Endpoint serviceAddress(*match.ipDst, *match.tcpDst);
  if (services_.count(serviceAddress) == 0) return;
  // The switch told us the entry is gone: this is orderly expiry, not
  // drift, so stop treating the redirect as installed.  The cookie guard
  // keeps a late notification for a superseded entry from clearing the
  // belief about its replacement.
  const auto believedIt = believedInstalled_.find(
      {&sw, *match.ipSrc, serviceAddress});
  if (believedIt != believedInstalled_.end() &&
      believedIt->second == event.entry.cookie) {
    believedInstalled_.erase(believedIt);
  }
  if (event.reason == openflow::RemovalReason::kIdleTimeout &&
      event.entry.stats.packets > 0) {
    memory_.touch(*match.ipSrc, serviceAddress, event.entry.stats.lastUsed);
  }
}

void EdgeController::expireMemory() {
  // Before expiring, sync FlowMemory with switch-side flow statistics:
  // long-lived entries carrying steady traffic never idle out, so their
  // activity is only visible through stats.  Each switch reports only the
  // entries used since its last delivered report; touching an entry that
  // did not move since then is a no-op (DESIGN §8), so the result equals a
  // full-table scan.  Expiry decisions are taken after all switches
  // answered.
  if (switches_.empty()) {
    finishExpiry();
    return;
  }
  auto remaining = std::make_shared<std::size_t>(switches_.size());
  for (auto& [sw, topo] : switches_) {
    const openflow::OpenFlowSwitch* const reporter = sw;
    sw->requestFlowActivity(
        activitySince_[sw],
        [this, remaining, reporter](
            SimTime takenAt,
            const std::vector<openflow::FlowActivity>& active) {
          for (const auto& entry : active) {
            const auto& match = entry.match;
            if (!match.ipSrc || !match.ipDst || !match.tcpDst) continue;
            const Endpoint serviceAddress(*match.ipDst, *match.tcpDst);
            if (services_.count(serviceAddress) == 0) continue;
            if (entry.stats.packets == 0) continue;
            memory_.touch(*match.ipSrc, serviceAddress, entry.stats.lastUsed);
          }
          SimTime& since = activitySince_[reporter];
          since = std::max(since, takenAt);
          if (--*remaining == 0) finishExpiry();
        });
  }
}

void EdgeController::finishExpiry() {
  const auto expired = memory_.expire(sim_.now());
  // A flow evicted from memory is no longer intended anywhere: drop the
  // believed-installed marks so any leftover switch entries surface as
  // orphans for the reconciler instead of lingering as stale beliefs.
  for (const auto& flow : expired) {
    for (const auto& [sw, topo] : switches_) {
      believedInstalled_.erase({sw, flow.client.ip, flow.service});
    }
  }
  if (!options_.scaleDownIdleServices) return;
  // One scale-down per (service, cluster) per sweep: when many flows of the
  // same instance expire in a single scan they ALL see flowsFor() == 0, and
  // without the dedupe the instance was scaled down once per flow.
  std::set<std::pair<Endpoint, std::string>> handled;
  for (const auto& flow : expired) {
    if (!handled.insert({flow.service, flow.cluster}).second) continue;
    if (memory_.flowsFor(flow.service, flow.cluster) != 0) continue;
    ClusterAdapter* adapter = dispatcher_->adapterByName(flow.cluster);
    if (adapter == nullptr || adapter->isCloud()) continue;
    const ServiceModel* service = serviceAt(flow.service).get();
    if (service == nullptr) continue;
    ledger_.scaleDowns.add();
    ES_INFO("controller", "scaling down idle service %s on %s",
            service->uniqueName.c_str(), flow.cluster.c_str());
    adapter->scaleDown(*service, [](Status) {});
    scaledDownAt_[{flow.service, flow.cluster}] = sim_.now();
  }

  // Remove / Delete phases after prolonged idle (fig. 4).
  if (options_.removeIdleAfter <= SimTime::zero()) return;
  for (auto it = scaledDownAt_.begin(); it != scaledDownAt_.end();) {
    const auto& [key, since] = *it;
    const auto& [address, clusterName] = key;
    if (memory_.flowsFor(address, clusterName) != 0) {
      // The service came back; forget the pending removal.
      it = scaledDownAt_.erase(it);
      continue;
    }
    if (sim_.now() - since < options_.removeIdleAfter) {
      ++it;
      continue;
    }
    ClusterAdapter* adapter = dispatcher_->adapterByName(clusterName);
    const ServiceModel* service = serviceAt(address).get();
    if (adapter != nullptr && service != nullptr) {
      ledger_.removals.add();
      ES_INFO("controller", "removing long-idle service %s from %s",
              service->uniqueName.c_str(), clusterName.c_str());
      const bool deleteImages = options_.deleteImagesOnRemove;
      adapter->removeService(
          *service, [deleteImages, adapter, service](Status) {
            if (deleteImages) adapter->deleteImages(*service, [](Status) {});
          });
    }
    it = scaledDownAt_.erase(it);
  }
}

Status EdgeController::predeploy(Endpoint serviceAddress,
                                 const std::string& clusterName,
                                 std::function<void(Result<Endpoint>)> cb) {
  const ServiceModelPtr& service = serviceAt(serviceAddress);
  if (service == nullptr) {
    return makeError(Errc::kNotFound, "no service registered at " +
                                          serviceAddress.toString());
  }
  ClusterAdapter* adapter = dispatcher_->adapterByName(clusterName);
  if (adapter == nullptr) {
    return makeError(Errc::kNotFound, "no cluster named " + clusterName);
  }
  scaledDownAt_.erase({serviceAddress, clusterName});
  dispatcher_->ensureReady(service, *adapter,
                           [cb = std::move(cb)](Result<Endpoint> result) {
                             if (cb) cb(std::move(result));
                           });
  return Status();
}

// ---- mobility / transparent handover --------------------------------------
//
// idle -> re-steer -> settle, one state machine per (client, service).
// The old instance keeps serving throughout: its reverse flow stays
// installed until the settle confirms the new forward flow in the switch,
// and the forward flow is *replaced* (install-or-replace FlowMod semantics)
// rather than removed-then-added, so no packet ever hits a hole in the
// table.  The continuity gap is therefore bounded by one rule-install RTT
// -- the flow-stats round trip that confirms the re-steer -- not by a cold
// deploy (a missing target instance is deployed *before* the re-steer
// commits, with the old binding answering meanwhile).

void EdgeController::requestHandover(Ipv4 client, Endpoint serviceAddress,
                                     const std::string& targetCluster,
                                     HandoverCallback cb) {
  const auto noop = [&cb](const char* reason) {
    if (cb) {
      HandoverResult result;
      result.reason = reason;
      cb(result);
    }
  };
  const ServiceModelPtr& service = serviceAt(serviceAddress);
  if (service == nullptr) {
    noop("unknown-service");
    return;
  }
  const auto memorized = memory_.lookup(client, serviceAddress);
  if (!memorized.has_value()) {
    noop("no-memorized-flow");
    return;
  }
  if (memorized->cluster == targetCluster) {
    noop("already-on-target");
    return;
  }
  const PendingKey key{client, serviceAddress};
  if (handovers_.count(key) != 0) {
    // One handover per flow at a time; the mobility layer retries on the
    // next attachment scan if the client moved again meanwhile.
    noop("handover-in-flight");
    return;
  }

  ledger_.handoversStarted.add();
  ActiveHandover& ah = handovers_[key];
  ah.startedAt = sim_.now();
  ah.oldInstance = memorized->instance;
  ah.oldCluster = memorized->cluster;
  ah.targetCluster = targetCluster;
  ah.cb = std::move(cb);
  if (trace_ != nullptr) {
    ah.rid = trace_->newRequest();
    trace_->instant(ah.rid, "handover-start", "mobility", sim_.now(),
                    {{"client", client},
                     {"service", serviceAddress},
                     {"from", ah.oldCluster},
                     {"to", targetCluster}});
    ah.span = trace_->beginSpan(ah.rid, "handover", "mobility", sim_.now(),
                                {{"service", service->uniqueName},
                                 {"from", ah.oldCluster},
                                 {"to", targetCluster}});
  }

  ClusterAdapter* target = dispatcher_->adapterByName(targetCluster);
  if (target == nullptr) {
    abortHandoverToCloud(key, *service, "unknown-cluster");
    return;
  }
  if (governor_ != nullptr && !target->isCloud() &&
      (!governor_->clusterAllowed(targetCluster, sim_.now()) ||
       governor_->brownoutActive(sim_.now()))) {
    // A breaker-open or browned-out target would turn the handover into
    // the very overload it protects against: degrade to the cloud now.
    abortHandoverToCloud(key, *service, "governor-vetoed-target");
    return;
  }

  const auto ready = target->readyInstances(*service);
  if (!ready.empty()) {
    // Warm handover: re-steer straight onto an existing instance.
    commitReSteer(key, *service, dispatcher_->pickInstance(ready, client),
                  targetCluster, /*degraded=*/false, "warm");
    return;
  }

  // Cold handover: deploy at the target first; the old binding keeps
  // serving until the re-steer commits.  ensureReady brings the full
  // retry/backoff/fault machinery, so kubelet or registry faults at the
  // target surface here as a deploy failure -> degrade to cloud.
  if (trace_ != nullptr) {
    trace_->instant(ah.rid, "handover-deploy", "mobility", sim_.now(),
                    {{"cluster", targetCluster}});
  }
  const ServiceModel* servicePtr = service.get();
  dispatcher_->ensureReady(
      service, *target,
      [this, key, servicePtr, targetCluster](Result<Endpoint> result) {
        if (handovers_.count(key) == 0) return;
        if (!result.ok()) {
          abortHandoverToCloud(key, *servicePtr, "deploy-failed");
          return;
        }
        commitReSteer(key, *servicePtr, result.value(), targetCluster,
                      /*degraded=*/false, "deployed");
      },
      handovers_[key].rid);
}

void EdgeController::commitReSteer(const PendingKey& key,
                                   const ServiceModel& service,
                                   Endpoint instance,
                                   const std::string& cluster, bool degraded,
                                   const char* reason) {
  const auto it = handovers_.find(key);
  if (it == handovers_.end()) return;
  ActiveHandover& ah = it->second;
  ah.commitAt = sim_.now();
  if (!memory_.rebind(key.client, key.service, instance, cluster,
                      sim_.now())) {
    // The flow expired while the target was deploying: nothing left to
    // re-steer.  Counts in the aborted bucket to keep the accounting exact.
    abortKeepingOldBinding(key, "flow-expired");
    return;
  }
  // The flow may have been scheduled for the Remove phase on the cluster it
  // just (re-)landed on; it is live again.
  scaledDownAt_.erase({key.service, cluster});

  // Replace the redirect flows on every attached switch, then confirm the
  // install with a flow-stats round trip: the FlowMod and the stats request
  // ride the same ordered control channel, so the snapshot that comes back
  // provably contains the new forward entry (matched by cookie).  That
  // round trip IS the continuity gap.
  std::vector<std::pair<OpenFlowSwitch*, std::uint64_t>> installs;
  for (auto& [sw, topo] : switches_) {
    installs.emplace_back(sw,
                          installRedirectFlows(*sw, key.client, service,
                                               instance));
  }
  if (installs.empty()) {
    // Headless controller (no attached switch): the FlowMemory re-bind is
    // the whole switchover.
    settleHandover(key, service, instance, cluster, degraded, reason);
    return;
  }
  auto remaining = std::make_shared<std::size_t>(installs.size());
  const ServiceModel* servicePtr = &service;
  for (auto& [sw, cookie] : installs) {
    sw->requestFlowStats([this, key, servicePtr, instance, cluster, degraded,
                          reason, cookie, remaining](
                             const std::vector<openflow::FlowEntry>& entries) {
      bool found = false;
      for (const auto& entry : entries) {
        if (entry.cookie == cookie) {
          found = true;
          break;
        }
      }
      if (!found) {
        ES_WARN("controller",
                "handover re-steer cookie %llu missing from flow stats",
                static_cast<unsigned long long>(cookie));
      }
      if (--*remaining == 0) {
        settleHandover(key, *servicePtr, instance, cluster, degraded, reason);
      }
    });
  }
}

void EdgeController::settleHandover(const PendingKey& key,
                                    const ServiceModel& service,
                                    Endpoint instance,
                                    const std::string& cluster, bool degraded,
                                    const char* reason) {
  const auto it = handovers_.find(key);
  if (it == handovers_.end()) return;
  ActiveHandover& ah = it->second;
  const SimTime now = sim_.now();

  // Switchover done: retire the old instance's reverse flow.  Until this
  // point it kept rewriting in-flight responses from the old instance back
  // to the service address, so the hand-off never dropped a reply.
  if (ah.oldInstance != instance && ah.oldInstance != service.address) {
    for (auto& [sw, topo] : switches_) {
      FlowMatch oldReverse;
      oldReverse.ipSrc = ah.oldInstance.ip;
      oldReverse.tcpSrc = ah.oldInstance.port;
      oldReverse.ipDst = key.client;
      oldReverse.ipProto = IpProto::kTcp;
      sw->sendFlowRemove(oldReverse);
    }
  }

  HandoverResult result;
  result.started = true;
  result.completed = !degraded;
  result.abortedToCloud = degraded;
  result.instance = instance;
  result.cluster = cluster;
  result.continuityGap = now - ah.commitAt;
  result.latency = now - ah.startedAt;
  result.reason = reason;
  (degraded ? ledger_.handoversAborted : ledger_.handoversCompleted).add();
  if (hoLatencyHist_ != nullptr) {
    hoLatencyHist_->observe(result.latency.toSeconds());
    hoGapHist_->observe(result.continuityGap.toSeconds());
  }
  if (trace_ != nullptr) {
    trace_->completeSpan(ah.rid, "continuity-gap", "mobility", ah.commitAt,
                         now, {}, ah.span);
    trace_->endSpan(ah.span, now,
                    {{"outcome", degraded ? "aborted_to_cloud" : "completed"},
                     {"instance", instance},
                     {"cluster", cluster},
                     {"reason", reason}});
  }
  ES_INFO("controller", "handover %s for %s: %s -> %s (%s)",
          degraded ? "degraded" : "completed", service.uniqueName.c_str(),
          ah.oldCluster.c_str(), cluster.c_str(), reason);

  // Scale the vacated instance down once no flow needs it -- mirror of the
  // idle-expiry policy, but triggered by the migration itself.
  if (options_.scaleDownIdleServices && ah.oldCluster != cluster &&
      memory_.flowsFor(key.service, ah.oldCluster) == 0) {
    ClusterAdapter* old = dispatcher_->adapterByName(ah.oldCluster);
    const ServiceModel* servicePtr = serviceAt(key.service).get();
    if (old != nullptr && !old->isCloud() && servicePtr != nullptr) {
      ledger_.scaleDowns.add();
      ES_INFO("controller", "scaling down vacated service %s on %s",
              servicePtr->uniqueName.c_str(), ah.oldCluster.c_str());
      old->scaleDown(*servicePtr, [](Status) {});
      scaledDownAt_[{key.service, ah.oldCluster}] = now;
    }
  }
  finishHandover(key, std::move(result));
}

void EdgeController::abortHandoverToCloud(const PendingKey& key,
                                          const ServiceModel& service,
                                          const char* reason) {
  const auto cloudIt = cloudRedirects_.find(key.service);
  if (cloudIt != cloudRedirects_.end()) {
    // Same re-steer path as a successful handover, pointed at the cloud
    // instance: the flow ends up on a working binding either way.
    commitReSteer(key, service, cloudIt->second.instance,
                  cloudIt->second.cluster, /*degraded=*/true, reason);
    return;
  }
  // No cloud to degrade to: keep the old binding (still serving) rather
  // than strand the flow.
  abortKeepingOldBinding(key, reason);
}

void EdgeController::abortKeepingOldBinding(const PendingKey& key,
                                            const char* reason) {
  const auto it = handovers_.find(key);
  if (it == handovers_.end()) return;
  const ActiveHandover& ah = it->second;
  HandoverResult result;
  result.started = true;
  result.abortedToCloud = true;
  result.instance = ah.oldInstance;
  result.cluster = ah.oldCluster;
  result.latency = sim_.now() - ah.startedAt;
  result.reason = reason;
  ledger_.handoversAborted.add();
  if (hoLatencyHist_ != nullptr) {
    hoLatencyHist_->observe(result.latency.toSeconds());
  }
  if (trace_ != nullptr) {
    trace_->endSpan(ah.span, sim_.now(),
                    {{"outcome", "aborted"}, {"reason", reason}});
  }
  finishHandover(key, std::move(result));
}

void EdgeController::finishHandover(const PendingKey& key,
                                    HandoverResult result) {
  const auto it = handovers_.find(key);
  if (it == handovers_.end()) return;
  HandoverCallback cb = std::move(it->second.cb);
  handovers_.erase(it);
  if (cb) cb(result);
}

}  // namespace edgesim::core
