#include "core/dispatcher.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace edgesim::core {

SimTime RetryPolicy::backoff(int retryIndex) const {
  SimTime delay = initialBackoff;
  for (int i = 0; i < retryIndex; ++i) {
    delay = delay.scaled(multiplier);
    if (delay >= maxBackoff) return maxBackoff;
  }
  return std::min(delay, maxBackoff);
}

Dispatcher::Dispatcher(Simulation& sim, FlowMemory& memory,
                       GlobalScheduler& scheduler,
                       std::vector<ClusterAdapter*> adapters,
                       metrics::Recorder* recorder, DispatcherOptions options,
                       trace::TraceRecorder* trace,
                       telemetry::MetricsRegistry* telemetry,
                       overload::OverloadGovernor* governor)
    : sim_(sim),
      controlThread_(std::this_thread::get_id()),
      memory_(memory),
      scheduler_(scheduler),
      adapters_(std::move(adapters)),
      recorder_(recorder),
      trace_(trace),
      governor_(governor),
      options_(options),
      localScheduler_(makeLocalScheduler(options.instancePolicy)),
      telemetry_(telemetry),
      ledger_(telemetry != nullptr ? *telemetry : ownRegistry_) {
  ES_ASSERT(!adapters_.empty());
  for (ClusterAdapter* adapter : adapters_) {
    clusterTelemetry(adapter->name());
    adapter->setReadinessObserver(this);
  }
}

Dispatcher::~Dispatcher() {
  for (ClusterAdapter* adapter : adapters_) {
    if (adapter->readinessObserver() == this) {
      adapter->setReadinessObserver(nullptr);
    }
  }
}

Dispatcher::ClusterTelemetry& Dispatcher::clusterTelemetry(
    const std::string& cluster) {
  const auto [it, inserted] = clusterTelemetry_.try_emplace(cluster);
  ClusterTelemetry& handles = it->second;
  if (!inserted) return handles;
  if (telemetry_ != nullptr) {
    for (const char* phase : {"pull", "create", "scaleup-cmd", "wait"}) {
      handles.phases[phase] = &telemetry_->histogram(
          "edgesim_deploy_phase_seconds",
          {{"cluster", cluster}, {"phase", phase}});
    }
  }
  const telemetry::Labels labels{{"cluster", cluster}};
  handles.deployments = &ledger_.counter("edgesim_deploys_total", labels);
  handles.background =
      &ledger_.counter("edgesim_background_deploys_total", labels);
  handles.retries = &ledger_.counter("edgesim_deploy_retries_total", labels);
  handles.fallbacks =
      &ledger_.counter("edgesim_deploy_fallbacks_total", labels);
  handles.quarantines =
      &ledger_.counter("edgesim_deploy_quarantines_total", labels);
  handles.decisionsFast =
      &ledger_.counter("edgesim_scheduler_decisions_total",
                       {{"cluster", cluster}, {"role", "fast"}});
  handles.decisionsBest =
      &ledger_.counter("edgesim_scheduler_decisions_total",
                       {{"cluster", cluster}, {"role", "best"}});
  return handles;
}

std::uint64_t Dispatcher::total(
    telemetry::Counter* ClusterTelemetry::*counter) const {
  std::uint64_t sum = 0;
  for (const auto& [cluster, handles] : clusterTelemetry_) {
    sum += (handles.*counter)->value();
  }
  return sum;
}

ClusterAdapter* Dispatcher::adapterByName(const std::string& name) const {
  for (auto* adapter : adapters_) {
    if (adapter->name() == name) return adapter;
  }
  return nullptr;
}

ClusterAdapter* Dispatcher::cloudAdapter() const {
  for (auto* adapter : adapters_) {
    if (adapter->isCloud()) return adapter;
  }
  return nullptr;
}

Endpoint Dispatcher::pickInstance(const std::vector<Endpoint>& instances,
                                  Ipv4 client) {
  ES_ASSERT(!instances.empty());
  return localScheduler_->pick(instances, client);
}

overload::CircuitBreaker* Dispatcher::breakerFor(
    const ClusterAdapter& cluster) {
  if (governor_ == nullptr || !governor_->options().breakerEnabled ||
      cluster.isCloud()) {
    return nullptr;
  }
  return &governor_->breaker(cluster.name());
}

bool Dispatcher::answerFromCloud(const ServiceModel& service, Ipv4 client,
                                 const ResolveCallback& cb, bool shed,
                                 trace::RequestId rid, trace::TraceKey why) {
  ClusterAdapter* cloud = cloudAdapter();
  if (cloud == nullptr) return false;
  const auto ready = cloud->readyInstances(service);
  if (ready.empty()) return false;
  Redirect redirect{localScheduler_->pick(ready, client), cloud->name(),
                    false};
  redirect.degraded = true;
  redirect.shed = shed;
  if (trace_ != nullptr) {
    trace_->instant(rid, why, "overload", sim_.now(),
                    {{"instance", redirect.instance}});
  }
  sim_.schedule(SimTime::zero(), [cb, redirect] { cb(redirect); });
  return true;
}

void Dispatcher::recordPhase(const ServiceModel& service,
                             ClusterAdapter& cluster, const char* phase,
                             SimTime duration) {
  const auto& phases = clusterTelemetry(cluster.name()).phases;
  if (const auto it = phases.find(phase); it != phases.end()) {
    it->second->observe(duration.toSeconds());
  }
  if (recorder_ == nullptr) return;
  recorder_->addSample(
      strprintf("%s/%s/%s", service.tag.c_str(), cluster.name().c_str(), phase),
      duration.toSeconds());
}

void Dispatcher::tracePhase(const std::string& key, trace::TraceKey phase,
                            SimTime start, bool ok) {
  if (trace_ == nullptr) return;
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  trace_->completeSpan(it->second.rid, phase, "deploy", start, sim_.now(),
                       {{"ok", ok ? "true" : "false"}}, it->second.span);
}

void Dispatcher::resolve(ServiceModelPtr model, Ipv4 client,
                         ResolveCallback cb, trace::RequestId rid,
                         SimTime deadline) {
  ES_ASSERT(cb != nullptr);
  ES_ASSERT(model != nullptr);
  const ServiceModel& service = *model;
  ES_ASSERT_MSG(std::this_thread::get_id() == controlThread_,
                "Dispatcher::resolve off the simulation thread, which owns "
                "all controller state");

  // 1. Memorized flow? Redirect to the same instance without rescheduling.
  if (const auto memorized = memory_.lookup(client, service.address)) {
    // Verify the instance is still alive; a scaled-down instance must not
    // receive traffic.
    ClusterAdapter* adapter = adapterByName(memorized->cluster);
    if (adapter != nullptr) {
      const auto ready = adapter->readyInstances(service);
      for (const auto& instance : ready) {
        if (instance == memorized->instance) {
          memory_.touch(client, service.address, sim_.now());
          if (trace_ != nullptr) {
            trace_->instant(rid, "flow-memory-hit", "controller", sim_.now(),
                            {{"instance", memorized->instance},
                             {"cluster", memorized->cluster}});
          }
          Redirect redirect{memorized->instance, memorized->cluster, true};
          sim_.schedule(SimTime::zero(),
                        [cb, redirect] { cb(redirect); });
          return;
        }
      }
    }
    memory_.forgetInstance(memorized->instance);  // stale entry
  }
  if (trace_ != nullptr) {
    trace_->instant(rid, "flow-memory-miss", "controller", sim_.now());
  }

  // 2. Gather system state for the scheduler.
  ScheduleRequest request;
  request.service = service.address;
  request.client = client;
  for (const auto* adapter : adapters_) {
    ClusterView view = adapter->view(service);
    if (proximity_ != nullptr) {
      // Mobility: the client's current attachment decides who is nearest.
      const int rank = proximity_->distanceRank(client, view.name);
      if (rank >= 0) view.distanceRank = rank;
    }
    request.clusters.push_back(std::move(view));
  }

  // 3. FAST / BEST decision (quarantined clusters are filtered out).
  const GlobalDecision decision = scheduler_.schedule(request, sim_.now());
  if (decision.fast.has_value()) {
    clusterTelemetry(*decision.fast).decisionsFast->add();
  }
  if (decision.best.has_value()) {
    clusterTelemetry(*decision.best).decisionsBest->add();
  }
  if (trace_ != nullptr) {
    trace_->completeSpan(
        rid, "schedule", "scheduler", sim_.now(), sim_.now(),
        {{"fast", decision.fast.value_or("<none>")},
         {"best", decision.best.value_or("<none>")}});
  }

  // 4. Background deployment for BEST ("without waiting", fig. 3).
  if (decision.deploysWithoutWaiting()) {
    if (ClusterAdapter* best = adapterByName(*decision.best)) {
      clusterTelemetry(best->name()).background->add();
      ES_DEBUG("dispatcher", "background deployment of %s on %s",
               service.uniqueName.c_str(), best->name().c_str());
      if (trace_ != nullptr) {
        trace_->instant(rid, "background-deploy", "scheduler", sim_.now(),
                        {{"cluster", best->name()}});
      }
      const Endpoint serviceAddress = service.address;
      const std::string clusterName = best->name();
      ensureReady(model, *best,
                  [this, serviceAddress, clusterName](Result<Endpoint> result) {
                    if (!result.ok()) {
                      ES_WARN("dispatcher", "background deployment failed: %s",
                              result.error().toString().c_str());
                      return;
                    }
                    if (backgroundListener_) {
                      backgroundListener_(serviceAddress, clusterName,
                                          result.value());
                    }
                  },
                  rid);
    }
  }

  // 5. FAST choice resolves the current request.
  ClusterAdapter* fast =
      decision.fast.has_value() ? adapterByName(*decision.fast) : nullptr;
  if (fast == nullptr) {
    // Forward toward the cloud.
    ClusterAdapter* cloud = cloudAdapter();
    if (cloud == nullptr) {
      sim_.schedule(SimTime::zero(), [cb] {
        cb(makeError(Errc::kUnavailable,
                     "no cluster can serve the request and no cloud exists"));
      });
      return;
    }
    fast = cloud;
  }

  overload::CircuitBreaker* breaker = breakerFor(*fast);
  const auto ready = fast->readyInstances(service);
  if (!ready.empty()) {
    // Local Scheduler choice within the cluster (fig. 6).
    const Redirect redirect{localScheduler_->pick(ready, client),
                            fast->name(), false};
    if (trace_ != nullptr) {
      trace_->instant(rid, "local-schedule", "scheduler", sim_.now(),
                      {{"instance", redirect.instance},
                       {"cluster", redirect.cluster},
                       {"policy", options_.instancePolicy}});
    }
    // A ready-instance answer is success evidence for the cluster's
    // breaker (and settles a half-open probe without one ever starting).
    if (breaker != nullptr) breaker->recordSuccess(sim_.now(), 0.0);
    memory_.upsert(client, service.address, redirect.instance, fast->name(),
                   sim_.now());
    sim_.schedule(SimTime::zero(), [cb, redirect] { cb(redirect); });
    return;
  }

  // Brownout: sustained shedding means waiting on ANY deployment is a
  // losing game -- force the paper's "without waiting" behaviour (fig. 3)
  // for every cold request: deploy on the chosen edge in the background,
  // answer the client from a ready cloud instance right now.
  if (governor_ != nullptr && !fast->isCloud() &&
      governor_->brownoutActive(sim_.now()) &&
      answerFromCloud(service, client, cb, /*shed=*/false, rid,
                      "brownout-redirect")) {
    governor_->brownoutRedirectCounter().add();
    const SimTime deployStart = sim_.now();
    ensureReady(model, *fast,
                [this, breaker, deployStart](Result<Endpoint> result) {
                  if (breaker == nullptr) return;
                  if (result.ok()) {
                    breaker->recordSuccess(
                        sim_.now(), (sim_.now() - deployStart).toSeconds());
                  } else {
                    breaker->recordFailure(sim_.now());
                  }
                },
                rid);
    return;
  }

  // Deploy on demand and wait for readiness (fig. 5).  Under the governor,
  // a half-open breaker treats this deployment as its probe, and the
  // request's deadline budget caps the wait: when it expires first, the
  // waiter is answered with a shed degraded cloud redirect while the
  // deployment itself keeps running.
  bool probeStarted = false;
  if (breaker != nullptr &&
      breaker->state(sim_.now()) == overload::BreakerState::kHalfOpen) {
    breaker->beginProbe(sim_.now());
    probeStarted = true;
  }
  auto answered = std::make_shared<bool>(false);
  auto budgetTimer = std::make_shared<EventHandle>();
  if (governor_ != nullptr && deadline < SimTime::max()) {
    const SimTime now = sim_.now();
    const SimTime delay = deadline > now ? deadline - now : SimTime::zero();
    *budgetTimer = sim_.schedule(delay, [this, model, client, cb, answered,
                                         rid] {
      if (*answered) return;
      *answered = true;
      governor_->noteShed(overload::ShedReason::kBudgetExpired);
      if (!answerFromCloud(*model, client, cb, /*shed=*/true, rid,
                           "budget-expired")) {
        cb(makeError(Errc::kTimeout,
                     "request deadline budget expired before " +
                         model->uniqueName + " deployed"));
      }
    });
  }
  const SimTime deployStart = sim_.now();
  const std::string clusterName = fast->name();
  ensureReady(model, *fast,
              [this, model, client, clusterName, cb, rid, breaker,
               probeStarted, deployStart, answered,
               budgetTimer](Result<Endpoint> result) {
                budgetTimer->cancel();
                if (breaker != nullptr) {
                  if (result.ok()) {
                    breaker->recordSuccess(
                        sim_.now(), (sim_.now() - deployStart).toSeconds());
                  } else if (result.error().code ==
                             Errc::kResourceExhausted) {
                    // A deploy-token refusal judges the governor's cap, not
                    // the cluster's health -- release the probe slot
                    // without recording an outcome.
                    if (probeStarted) breaker->cancelProbe(sim_.now());
                  } else {
                    breaker->recordFailure(sim_.now());
                  }
                }
                if (*answered) {
                  // The budget expired first and the waiter already got its
                  // shed cloud answer; the deployment outcome only feeds
                  // the breaker (and FlowMemory for future requests).
                  if (result.ok()) {
                    memory_.upsert(client, model->address, result.value(),
                                   clusterName, sim_.now());
                  }
                  return;
                }
                *answered = true;
                if (!result.ok()) {
                  // Graceful degradation: the edge deployment died even after
                  // retries -- answer from the cloud rather than failing the
                  // client.  Not memorized, so the next request tries the
                  // edge again (by then the quarantine may have lifted).
                  ClusterAdapter* cloud = cloudAdapter();
                  if (options_.cloudFallback && cloud != nullptr &&
                      cloud->name() != clusterName) {
                    const auto cloudReady = cloud->readyInstances(*model);
                    if (!cloudReady.empty()) {
                      clusterTelemetry(clusterName).fallbacks->add();
                      if (trace_ != nullptr) {
                        trace_->instant(
                            rid, "cloud-fallback", "deploy", sim_.now(),
                            {{"failed_cluster", clusterName},
                             {"error", result.error()}});
                      }
                      ES_WARN("dispatcher",
                              "degrading %s to cloud after failure on %s: %s",
                              model->uniqueName.c_str(), clusterName.c_str(),
                              result.error().toString().c_str());
                      Redirect redirect{localScheduler_->pick(cloudReady,
                                                              client),
                                        cloud->name(), false};
                      redirect.degraded = true;
                      cb(redirect);
                      return;
                    }
                  }
                  cb(result.error());
                  return;
                }
                memory_.upsert(client, model->address, result.value(),
                               clusterName, sim_.now());
                cb(Redirect{result.value(), clusterName, false});
              },
              rid);
}

void Dispatcher::ensureReady(ServiceModelPtr model, ClusterAdapter& cluster,
                             ReadyCallback cb, trace::RequestId rid) {
  ES_ASSERT(cb != nullptr);
  ES_ASSERT(model != nullptr);
  const ServiceModel& service = *model;

  const auto ready = cluster.readyInstances(service);
  if (!ready.empty()) {
    const Endpoint instance = ready.front();
    sim_.schedule(SimTime::zero(), [cb, instance] { cb(instance); });
    return;
  }

  const std::string key = service.uniqueName + "@" + cluster.name();
  if (const auto it = pending_.find(key); it != pending_.end()) {
    if (trace_ != nullptr) {
      // Coalesced onto the in-flight deployment: the phases are traced
      // under the initiating request's ID; this one just marks the join.
      trace_->instant(rid, "join-deployment", "deploy", sim_.now(),
                      {{"key", key}, {"initiator", it->second.rid}});
    }
    it->second.waiters.push_back(std::move(cb));
    return;
  }

  // A NEW deployment on an edge cluster costs one of the governor's
  // per-cluster deploy tokens (joining an in-flight one above does not).
  // At the cap the request is refused with kResourceExhausted, which flows
  // into resolve()'s cloud-fallback degradation; the cloud itself is never
  // capped -- it is the degradation target.
  bool holdsToken = false;
  if (governor_ != nullptr && !cluster.isCloud()) {
    if (!governor_->tryAcquireDeployToken(cluster.name())) {
      governor_->noteShed(overload::ShedReason::kDeployCap);
      if (trace_ != nullptr) {
        trace_->instant(rid, "deploy-cap", "overload", sim_.now(),
                        {{"cluster", cluster.name()},
                         {"in_use", static_cast<std::uint64_t>(
                                        governor_->deployTokensInUse(
                                            cluster.name()))}});
      }
      ES_DEBUG("dispatcher", "deploy cap reached on %s; refusing deployment",
               cluster.name().c_str());
      const std::string name = cluster.name();
      sim_.schedule(SimTime::zero(), [cb = std::move(cb), name] {
        cb(makeError(Errc::kResourceExhausted,
                     "concurrent deployment cap reached on " + name));
      });
      return;
    }
    holdsToken = true;
  }

  PendingDeploy deploy;
  deploy.service = std::move(model);
  deploy.epoch = nextAttempt_++;
  deploy.waiters.push_back(std::move(cb));
  deploy.startedAt = sim_.now();
  deploy.cluster = cluster.name();
  deploy.rid = rid;
  deploy.holdsToken = holdsToken;
  if (trace_ != nullptr) {
    deploy.span = trace_->beginSpan(rid, "deploy", "deploy", sim_.now(),
                                    {{"cluster", cluster.name()},
                                     {"service", service.uniqueName}});
  }
  const SimTime hardDeadline =
      options_.deployTimeout *
      static_cast<std::int64_t>(options_.retry.maxRetries + 1);
  deploy.timeoutHandle = sim_.schedule(hardDeadline, [this, key] {
    finishDeploy(key, makeError(Errc::kTimeout, "deployment timed out"));
  });
  const ServiceModelPtr shared = deploy.service;
  const std::uint64_t epoch = deploy.epoch;
  pending_.emplace(key, std::move(deploy));
  clusterTelemetry(cluster.name()).deployments->add();
  runPhases(shared, cluster, key, epoch);
}

void Dispatcher::armPhaseTimer(const ServiceModelPtr& service,
                               ClusterAdapter& cluster, const std::string& key,
                               std::uint64_t epoch) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  it->second.phaseTimer.cancel();
  if (options_.phaseTimeout <= SimTime::zero()) return;
  it->second.phaseTimer =
      sim_.schedule(options_.phaseTimeout, [this, service, &cluster, key,
                                            epoch] {
        onPhaseFailure(service, cluster, key, epoch,
                       makeError(Errc::kTimeout, "deployment phase timed out on " +
                                                     cluster.name()));
      });
}

void Dispatcher::onPhaseFailure(const ServiceModelPtr& service,
                                ClusterAdapter& cluster, const std::string& key,
                                std::uint64_t epoch, Error error) {
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.epoch != epoch) return;
  PendingDeploy& deploy = it->second;
  deploy.phaseTimer.cancel();
  deploy.epoch = nextAttempt_++;  // invalidate the failed attempt's callbacks
  unpark(deploy);
  if (deploy.retriesUsed >= options_.retry.maxRetries) {
    finishDeploy(key, std::move(error));
    return;
  }
  const SimTime delay = options_.retry.backoff(deploy.retriesUsed);
  ++deploy.retriesUsed;
  clusterTelemetry(cluster.name()).retries->add();
  if (trace_ != nullptr) {
    trace_->instant(deploy.rid, "retry", "deploy", sim_.now(),
                    {{"attempt", strprintf("%d/%d", deploy.retriesUsed,
                                           options_.retry.maxRetries)},
                     {"cluster", cluster.name()},
                     {"backoff_ms", strprintf("%.1f", delay.toMillis())},
                     {"error", error}});
  }
  ES_INFO("dispatcher", "retry %d/%d of %s on %s in %.3fs after: %s",
          deploy.retriesUsed, options_.retry.maxRetries,
          service->uniqueName.c_str(), cluster.name().c_str(),
          delay.toSeconds(), error.toString().c_str());
  const std::uint64_t nextEpoch = deploy.epoch;
  sim_.schedule(delay, [this, service, &cluster, key, nextEpoch] {
    runPhases(service, cluster, key, nextEpoch);
  });
}

void Dispatcher::runPhases(const ServiceModelPtr& service,
                           ClusterAdapter& cluster, const std::string& key,
                           std::uint64_t epoch) {
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.epoch != epoch) return;
  const ClusterView view = cluster.view(*service);
  const SimTime phaseStart = sim_.now();
  armPhaseTimer(service, cluster, key, epoch);

  if (!view.imageCached) {
    // Phase 1: Pull.
    cluster.pullImages(
        *service,
        [this, service, &cluster, key, epoch, phaseStart](Status status) {
          const auto pit = pending_.find(key);
          if (pit == pending_.end() || pit->second.epoch != epoch) return;
          recordPhase(*service, cluster, "pull", sim_.now() - phaseStart);
          tracePhase(key, "pull", phaseStart, status.ok());
          if (!status.ok()) {
            onPhaseFailure(service, cluster, key, epoch, status.error());
            return;
          }
          runPhases(service, cluster, key, epoch);
        });
    return;
  }

  if (!view.serviceCreated) {
    // Phase 2: Create.
    cluster.createService(
        *service,
        [this, service, &cluster, key, epoch, phaseStart](Status status) {
          const auto pit = pending_.find(key);
          if (pit == pending_.end() || pit->second.epoch != epoch) return;
          recordPhase(*service, cluster, "create", sim_.now() - phaseStart);
          tracePhase(key, "create", phaseStart, status.ok());
          if (!status.ok()) {
            onPhaseFailure(service, cluster, key, epoch, status.error());
            return;
          }
          runPhases(service, cluster, key, epoch);
        });
    return;
  }

  // Phase 3: Scale Up, then wait for the port to open.  The phase timer
  // armed above spans the scale-up command plus the wait.
  cluster.scaleUp(
      *service,
      [this, service, &cluster, key, epoch, phaseStart](Status status) {
        const auto pit = pending_.find(key);
        if (pit == pending_.end() || pit->second.epoch != epoch) return;
        recordPhase(*service, cluster, "scaleup-cmd", sim_.now() - phaseStart);
        tracePhase(key, "scaleup", phaseStart, status.ok());
        if (!status.ok()) {
          onPhaseFailure(service, cluster, key, epoch, status.error());
          return;
        }
        pollUntilReady(service, cluster, key, sim_.now(), epoch);
      });
}

void Dispatcher::pollUntilReady(const ServiceModelPtr& service,
                                ClusterAdapter& cluster, const std::string& key,
                                SimTime scaledUpAt, std::uint64_t epoch) {
  // "Before setting up the flows, the controller continuously tests if the
  // respective port is open" (§VI).
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.epoch != epoch) {
    return;  // timed out or superseded by a retry meanwhile
  }
  const auto ready = cluster.readyInstances(*service);
  if (!ready.empty()) {
    const Endpoint candidate = ready.front();
    cluster.probeInstance(
        candidate,
        [this, service, &cluster, key, scaledUpAt, epoch,
         candidate](bool open) {
          const auto pit = pending_.find(key);
          if (pit == pending_.end() || pit->second.epoch != epoch) return;
          if (open) {
            recordPhase(*service, cluster, "wait", sim_.now() - scaledUpAt);
            tracePhase(key, "wait", scaledUpAt, /*ok=*/true);
            finishDeploy(key, candidate);
            return;
          }
          sim_.schedule(
              options_.portPollInterval,
              [this, service, &cluster, key, scaledUpAt, epoch] {
                pollUntilReady(service, cluster, key, scaledUpAt, epoch);
              });
        });
    return;
  }
  // Nothing ready: rather than ticking on unchanged state, park until the
  // adapter reports a change (onReadinessChanged).
  park(it->second, scaledUpAt);
}

void Dispatcher::park(PendingDeploy& deploy, SimTime scaledUpAt) {
  if (!deploy.parked) ++parkedWaiters_;
  deploy.parked = true;
  deploy.scaledUpAt = scaledUpAt;
  deploy.lastPollAt = sim_.now();
}

void Dispatcher::unpark(PendingDeploy& deploy) {
  if (deploy.parked) --parkedWaiters_;
  deploy.parked = false;
}

void Dispatcher::onReadinessChanged(ClusterAdapter& cluster,
                                    const std::string& serviceName) {
  if (parkedWaiters_ == 0) return;
  const std::string key = serviceName + "@" + cluster.name();
  const auto it = pending_.find(key);
  if (it == pending_.end() || !it->second.parked) return;
  PendingDeploy& deploy = it->second;
  unpark(deploy);
  // The tick the poll would have reached by ticking all along: the first
  // point of its grid (lastPollAt + k * interval, k >= 1) at or after now.
  // It runs the unchanged poll, which re-checks readiness and the attempt
  // and parks again if nothing is ready by then.
  const std::int64_t interval = options_.portPollInterval.toNanos();
  const std::int64_t behind = (sim_.now() - deploy.lastPollAt).toNanos();
  const std::int64_t ticks =
      std::max<std::int64_t>(1, (behind + interval - 1) / interval);
  sim_.scheduleAt(deploy.lastPollAt + options_.portPollInterval * ticks,
                  [this, service = deploy.service, &cluster, key,
                   scaledUpAt = deploy.scaledUpAt, epoch = deploy.epoch] {
                    pollUntilReady(service, cluster, key, scaledUpAt, epoch);
                  });
}

void Dispatcher::finishDeploy(const std::string& key,
                              Result<Endpoint> result) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  auto waiters = std::move(it->second.waiters);
  it->second.timeoutHandle.cancel();
  it->second.phaseTimer.cancel();
  const std::string cluster = it->second.cluster;
  const trace::RequestId deployRid = it->second.rid;
  const bool holdsToken = it->second.holdsToken;
  unpark(it->second);
  if (trace_ != nullptr) {
    trace_->endSpan(it->second.span, sim_.now(),
                    {{"ok", result.ok() ? "true" : "false"},
                     {"retries",
                      static_cast<std::uint64_t>(it->second.retriesUsed)}});
  }
  pending_.erase(it);
  if (holdsToken && governor_ != nullptr) {
    governor_->releaseDeployToken(cluster);
  }

  if (!result.ok()) {
    // The retry budget is spent: hide the cluster from scheduling decisions
    // until the cooldown passes.  The cloud is never quarantined -- it is
    // the degradation target.
    ClusterAdapter* adapter = adapterByName(cluster);
    const bool isCloud = adapter != nullptr && adapter->isCloud();
    if (!isCloud && options_.quarantineCooldown > SimTime::zero()) {
      scheduler_.quarantine(cluster, sim_.now() + options_.quarantineCooldown);
      clusterTelemetry(cluster).quarantines->add();
      if (trace_ != nullptr) {
        trace_->instant(deployRid, "quarantine", "deploy", sim_.now(),
                        {{"cluster", cluster},
                         {"cooldown_s",
                          strprintf("%.1f",
                                    options_.quarantineCooldown.toSeconds())},
                         {"error", result.error()}});
      }
      ES_WARN("dispatcher", "quarantining %s for %.1fs after: %s",
              cluster.c_str(), options_.quarantineCooldown.toSeconds(),
              result.error().toString().c_str());
    }
  }

  for (auto& waiter : waiters) waiter(result);
}

}  // namespace edgesim::core
