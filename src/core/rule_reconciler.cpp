#include "core/rule_reconciler.hpp"

#include <map>
#include <set>
#include <utility>

#include "util/log.hpp"

namespace edgesim::core {

using openflow::FlowEntry;
using openflow::OpenFlowSwitch;

RuleReconciler::RuleReconciler(Simulation& sim, EdgeController& controller,
                               ReconcilerOptions options,
                               telemetry::MetricsRegistry* telemetry,
                               trace::TraceRecorder* trace)
    : sim_(sim), controller_(controller), options_(options), trace_(trace) {
  ES_ASSERT(options_.period > SimTime::zero());
  if (telemetry != nullptr) {
    sweepsCtr_ = &telemetry->counter("edgesim_reconcile_sweeps_total");
    driftMissingCtr_ = &telemetry->counter(
        "edgesim_reconcile_drift_detected_total", {{"kind", "missing"}});
    driftOrphanCtr_ = &telemetry->counter(
        "edgesim_reconcile_drift_detected_total", {{"kind", "orphan"}});
    reinstalledCtr_ =
        &telemetry->counter("edgesim_reconcile_rules_reinstalled_total");
    orphansDeletedCtr_ =
        &telemetry->counter("edgesim_reconcile_orphans_deleted_total");
    resynthCtr_ =
        &telemetry->counter("edgesim_reconcile_flow_removed_resynth_total");
    statsTimeoutCtr_ =
        &telemetry->counter("edgesim_reconcile_stats_timeouts_total");
    sweepHist_ = &telemetry->histogram("edgesim_reconcile_sweep_seconds");
  }
}

RuleReconciler::~RuleReconciler() { stop(); }

void RuleReconciler::start() {
  if (timer_.running()) return;
  timer_.start(sim_, options_.period, [this] {
    sweep(nullptr);
    return true;
  }, options_.period);
}

void RuleReconciler::stop() { timer_.cancel(); }

void RuleReconciler::sweepNow(std::function<void()> done) {
  sweep(std::move(done));
}

std::string RuleReconciler::entryKey(const FlowEntry& entry) {
  return std::to_string(entry.priority) + "|" + entry.match.toString() + "|" +
         openflow::actionsToString(entry.actions);
}

void RuleReconciler::sweep(std::function<void()> done) {
  const auto& switches = controller_.attachedSwitches();
  if (sweeping_ || switches.empty()) {
    if (done) done();
    return;
  }
  sweeping_ = true;
  auto state = std::make_shared<SweepState>();
  state->remaining = switches.size();
  state->startedAt = sim_.now();
  state->done = std::move(done);
  if (trace_ != nullptr) {
    state->rid = trace_->newRequest();
    state->span = trace_->beginSpan(
        state->rid, "reconcile_sweep", "reconcile", sim_.now(),
        {{"switches", std::uint64_t{switches.size()}}});
  }
  for (const auto& [sw, topo] : switches) {
    OpenFlowSwitch* swPtr = sw;
    sw->requestFlowStats(
        [this, state, swPtr](const std::vector<FlowEntry>& entries) {
          if (state->finished) return;  // answered after the deadline
          processSwitch(*swPtr, entries, *state);
          if (--state->remaining == 0) finishSweep(state);
        });
  }
  // A lossy channel can eat the stats request or the reply; bound the wait
  // so a sweep never wedges the sweeper.
  state->deadline = sim_.schedule(options_.sweepTimeout, [this, state] {
    if (state->finished) return;
    stats_.statsTimeouts += state->remaining;
    if (statsTimeoutCtr_ != nullptr) statsTimeoutCtr_->add(state->remaining);
    finishSweep(state);
  });
}

void RuleReconciler::processSwitch(OpenFlowSwitch& sw,
                                   const std::vector<FlowEntry>& entries,
                                   SweepState& state) {
  // Index the switch's actual redirect entries by shape.  Lower-priority
  // background/uplink flows are controller-static, not FlowMemory state,
  // and are left alone.
  std::map<std::string, const FlowEntry*> installed;
  for (const FlowEntry& entry : entries) {
    if (entry.priority < kRedirectPriority) continue;
    installed.emplace(entryKey(entry), &entry);
  }

  std::set<std::string> wanted;
  for (const auto& flow : controller_.intendedFlows(sw)) {
    bool missing = false;
    for (const FlowEntry& entry : flow.entries) {
      auto key = entryKey(entry);
      if (installed.count(key) == 0) missing = true;
      wanted.insert(std::move(key));
    }
    if (!missing) continue;
    ++stats_.driftMissing;
    ++state.missing;
    if (driftMissingCtr_ != nullptr) driftMissingCtr_->add();
    ES_INFO("reconciler", "re-installing lost flow %s -> %s on %s",
            flow.service.toString().c_str(), flow.instance.toString().c_str(),
            sw.name().c_str());
    if (controller_.reinstallRedirect(sw, flow.client, flow.service,
                                      flow.instance)) {
      ++stats_.flowsReinstalled;
      if (reinstalledCtr_ != nullptr) reinstalledCtr_->add();
      // The entry vanished without the controller hearing a FlowRemoved
      // (restart or lost notification).  Resynthesize its bookkeeping
      // conservatively: refresh last-seen at sweep time, exactly what a
      // delivered idle-removal with recent traffic would have done, so the
      // memorized flow is not expired early because a message died.
      controller_.flowMemory().touch(flow.client, flow.service, sim_.now());
      ++stats_.flowRemovedResynthesized;
      if (resynthCtr_ != nullptr) resynthCtr_->add();
    }
  }

  for (const auto& [key, entry] : installed) {
    if (wanted.count(key) != 0) continue;
    // No memorized flow explains this redirect entry: a delete was lost, or
    // memory expired while the notification died.  Remove it through the
    // normal path so a notify-on-removal entry still yields its FlowRemoved.
    ++stats_.driftOrphans;
    ++state.orphans;
    if (driftOrphanCtr_ != nullptr) driftOrphanCtr_->add();
    ES_INFO("reconciler", "deleting orphan entry %s on %s",
            entry->match.toString().c_str(), sw.name().c_str());
    sw.sendFlowRemove(entry->match, entry->cookie);
    ++stats_.orphansDeleted;
    if (orphansDeletedCtr_ != nullptr) orphansDeletedCtr_->add();
  }
}

void RuleReconciler::finishSweep(const std::shared_ptr<SweepState>& state) {
  state->finished = true;
  state->deadline.cancel();
  ++stats_.sweeps;
  if (sweepsCtr_ != nullptr) sweepsCtr_->add();
  const SimTime elapsed = sim_.now() - state->startedAt;
  if (sweepHist_ != nullptr) sweepHist_->observe(elapsed.toSeconds());
  if (trace_ != nullptr) {
    trace_->endSpan(state->span, sim_.now(),
                    {{"missing", std::uint64_t{state->missing}},
                     {"orphans", std::uint64_t{state->orphans}},
                     {"timed_out", std::uint64_t{state->remaining}}});
  }
  sweeping_ = false;
  if (state->done) state->done();
}

}  // namespace edgesim::core
