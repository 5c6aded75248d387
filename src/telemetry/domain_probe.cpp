#include "telemetry/domain_probe.hpp"

#include <algorithm>
#include <string>

#include "util/strings.hpp"

namespace edgesim::telemetry {

namespace {

std::string idLabel(DomainId id) {
  return strprintf("%u", static_cast<unsigned>(id));
}

}  // namespace

DomainProbe::DomainProbe(Simulation& sim, MetricsRegistry* registry,
                         trace::TraceRecorder* recorder)
    : sim_(sim),
      registry_(registry),
      recorder_(recorder),
      epoch_(std::chrono::steady_clock::now()) {
  const std::size_t count = sim.domainCount();
  domains_.reserve(count);
  for (DomainId id = 0; id < count; ++id) {
    EventDomain& domain = sim.domain(id);
    auto state = std::make_unique<DomainState>();
    if (registry != nullptr) {
      const Labels labels{{"domain", idLabel(id)}, {"name", domain.name()}};
      state->events =
          &registry->counter("edgesim_domain_events_total", labels);
      state->lifts =
          &registry->counter("edgesim_domain_clock_lifts_total", labels);
      state->advanceWall =
          &registry->histogram("edgesim_domain_advance_seconds", labels);
      state->stallWall =
          &registry->histogram("edgesim_domain_stall_wall_seconds", labels);
      state->stallSim =
          &registry->histogram("edgesim_domain_stall_sim_seconds", labels);
      EventDomain* domainPtr = &domain;
      registry->gaugeFn("edgesim_domain_heap_depth", labels, [domainPtr] {
        return static_cast<double>(domainPtr->pendingEvents());
      });
      Simulation* simPtr = &sim;
      registry->gaugeFn(
          "edgesim_domain_clock_lag_seconds", labels, [simPtr, domainPtr] {
            std::int64_t maxNanos = 0;
            for (DomainId d = 0; d < simPtr->domainCount(); ++d) {
              maxNanos =
                  std::max(maxNanos, simPtr->domain(d).nowNanosAtomic());
            }
            const std::int64_t lag = maxNanos - domainPtr->nowNanosAtomic();
            return static_cast<double>(std::max<std::int64_t>(lag, 0)) / 1e9;
          });
      // Channel series hang off the receiving side's inbound list so every
      // channel is visited exactly once.
      for (const DomainChannel* channel : domain.inbound()) {
        const DomainId from = channel->from().id();
        const Labels pair{{"from", idLabel(from)}, {"to", idLabel(id)}};
        messageCounters_[pairKey(from, id)] =
            &registry->counter("edgesim_domain_channel_messages_total", pair);
        stallCounters_[pairKey(id, from)] = &registry->counter(
            "edgesim_domain_stalls_total",
            {{"domain", idLabel(id)}, {"bound_by", idLabel(from)}});
        Labels gaugeLabels = pair;
        if (!channel->via().empty()) {
          gaugeLabels.emplace_back("via", channel->via());
        }
        registry->gaugeFn("edgesim_domain_channel_lookahead_seconds",
                          gaugeLabels, [channel] {
                            return channel->lookahead().toSeconds();
                          });
        registry->gaugeFn("edgesim_domain_channel_inbox_depth", pair,
                          [channel] {
                            return static_cast<double>(
                                channel->pendingCount());
                          });
      }
    }
    if (recorder != nullptr) {
      recorder->nameTrack(static_cast<std::int64_t>(id),
                          strprintf("%u:%s", static_cast<unsigned>(id),
                                    domain.name().c_str()));
    }
    domains_.push_back(std::move(state));
  }
  if (registry != nullptr) {
    watchdogPasses_ =
        &registry->counter("edgesim_domain_watchdog_passes_total");
    watchdogProductive_ = &registry->counter(
        "edgesim_domain_watchdog_wakes_total", {{"result", "productive"}});
    watchdogRedundant_ = &registry->counter(
        "edgesim_domain_watchdog_wakes_total", {{"result", "redundant"}});
  }
  sim.setDomainObserver(this);
}

DomainProbe::~DomainProbe() { sim_.setDomainObserver(nullptr); }

Counter* DomainProbe::messageCounter(DomainId from, DomainId to) {
  if (registry_ == nullptr) return nullptr;
  const std::uint64_t key = pairKey(from, to);
  {
    std::lock_guard lock(lazyMutex_);
    const auto it = messageCounters_.find(key);
    if (it != messageCounters_.end()) return it->second;
  }
  // Channel-less pair (sequential multi-domain runs admit directly into the
  // target queue): resolve once, then cache.
  Counter* counter = &registry_->counter(
      "edgesim_domain_channel_messages_total",
      {{"from", idLabel(from)}, {"to", idLabel(to)}});
  std::lock_guard lock(lazyMutex_);
  messageCounters_[key] = counter;
  return counter;
}

Counter* DomainProbe::stallCounter(DomainId domain, DomainId boundedBy) {
  if (registry_ == nullptr) return nullptr;
  const std::uint64_t key = pairKey(domain, boundedBy);
  {
    std::lock_guard lock(lazyMutex_);
    const auto it = stallCounters_.find(key);
    if (it != stallCounters_.end()) return it->second;
  }
  Counter* counter = &registry_->counter(
      "edgesim_domain_stalls_total",
      {{"domain", idLabel(domain)}, {"bound_by", idLabel(boundedBy)}});
  std::lock_guard lock(lazyMutex_);
  stallCounters_[key] = counter;
  return counter;
}

void DomainProbe::closeStall(DomainState& state, DomainId domain,
                             std::chrono::steady_clock::time_point end,
                             SimTime simNow) {
  const double wallSeconds =
      std::chrono::duration<double>(end - state.stallStartWall).count();
  const SimTime simDelta = simNow >= state.stallStartSim
                               ? simNow - state.stallStartSim
                               : SimTime::zero();
  if (Counter* counter = stallCounter(domain, state.boundedBy)) {
    counter->add(1);
  }
  if (state.stallWall != nullptr) {
    state.stallWall->observe(std::max(wallSeconds, 0.0));
  }
  if (state.stallSim != nullptr) {
    state.stallSim->observe(simDelta.toSeconds());
  }
  if (recorder_ != nullptr) {
    recorder_->completeTrackSpan(
        static_cast<std::int64_t>(domain), "stall", "domain",
        wallStamp(state.stallStartWall), wallStamp(end),
        {{"bound_by", idLabel(state.boundedBy)}});
  }
  state.stalled = false;
  state.boundedBy = kNoDomainId;
}

void DomainProbe::onAdvance(const AdvanceInfo& info) {
  DomainState& state = *domains_[info.domain];
  const bool progressed = info.dispatched > 0 || info.clockMoved;
  if (state.events != nullptr && info.dispatched > 0) {
    state.events->add(info.dispatched);
  }
  if (state.lifts != nullptr && info.lifts > 0) state.lifts->add(info.lifts);
  if (state.advanceWall != nullptr) {
    state.advanceWall->observe(
        std::chrono::duration<double>(info.wallEnd - info.wallStart).count());
  }
  if (recorder_ != nullptr && info.dispatched > 0) {
    recorder_->completeTrackSpan(
        static_cast<std::int64_t>(info.domain), "advance", "domain",
        wallStamp(info.wallStart), wallStamp(info.wallEnd),
        {{"dispatched", std::uint64_t{info.dispatched}}});
  }
  if (state.stalled && (progressed || info.idleAtHorizon)) {
    // The stall ended when this slice started doing something (progress) or
    // found the domain idle at the horizon (the gating event was cancelled
    // or the bound finally cleared it).
    closeStall(state, info.domain,
               progressed ? info.wallStart : info.wallEnd, info.now);
  }
  if (!info.idleAtHorizon && info.boundedBy != kNoDomainId &&
      !state.stalled) {
    state.stalled = true;
    state.boundedBy = info.boundedBy;
    state.stallStartWall = info.wallEnd;
    state.stallStartSim = info.now;
  }
}

std::uint64_t DomainProbe::onCrossSend(DomainId from, DomainId to,
                                       SimTime when) {
  if (Counter* counter = messageCounter(from, to)) counter->add(1);
  if (recorder_ == nullptr) return 0;
  const std::uint64_t flow =
      nextFlow_.fetch_add(1, std::memory_order_relaxed) + 1;
  const SimTime at = wallStamp(std::chrono::steady_clock::now());
  recorder_->completeTrackSpan(static_cast<std::int64_t>(from), "xdom-send",
                               "domain", at, at,
                               {{"to", idLabel(to)},
                                {"when_us", strprintf("%.3f", when.toMicros())},
                                {"flow", flow}});
  recorder_->flowBegin(flow, static_cast<std::int64_t>(from), "xdom", "domain",
                       at);
  return flow;
}

void DomainProbe::onCrossReceive(std::uint64_t flow, DomainId from,
                                 DomainId to, SimTime when) {
  if (recorder_ == nullptr) return;
  const SimTime at = wallStamp(std::chrono::steady_clock::now());
  recorder_->flowEnd(flow, static_cast<std::int64_t>(to), "xdom", "domain",
                     at);
  recorder_->completeTrackSpan(static_cast<std::int64_t>(to), "xdom-recv",
                               "domain", at, at,
                               {{"from", idLabel(from)},
                                {"when_us", strprintf("%.3f", when.toMicros())},
                                {"flow", flow}});
}

void DomainProbe::onWatchdogPass() {
  if (watchdogPasses_ != nullptr) watchdogPasses_->add(1);
}

void DomainProbe::onWatchdogWake(DomainId /*domain*/, bool productive) {
  Counter* counter = productive ? watchdogProductive_ : watchdogRedundant_;
  if (counter != nullptr) counter->add(1);
}

}  // namespace edgesim::telemetry
