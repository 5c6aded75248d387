// SLO watchdog: budget evaluation over live telemetry histograms.
//
// Each SloBudget watches one registry histogram series (and optionally an
// error/total counter pair) and is evaluated on a periodic sim-time tick.
// Evaluation is WINDOWED: the watchdog keeps the previous tick's bucket
// counts and computes the quantile over the DELTA, so one slow warm-up
// request cannot poison an hour of good behaviour (and a breach clears
// itself once the offending window passes).
//
// On breach the watchdog does three things so slow requests are
// explainable without replaying the run:
//   * appends a structured SloBreach record (JSON-exportable);
//   * emits a trace instant ("slo-breach", category "telemetry") bound to
//     the worst request observed in the window;
//   * copies that request's trace spans into the breach record, so the
//     phase-by-phase story of the offending request travels with the
//     breach (breachesJson() exports it without the trace).
// It also bumps `edgesim_slo_breaches_total{budget=...}` in the registry,
// making breaches visible in snapshots and `telemetry_top`.
//
// The worst-request table is fed by observeRequest() from the controller's
// cold-resolve completion.  Thread model: ONE writer.  observeRequest() and
// evaluate() run on the thread that constructed the watchdog (the
// simulation thread) and check it with an always-on assertion, as the
// recorders do; there is no lock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"
#include "util/json.hpp"
#include "util/owner_thread.hpp"

namespace edgesim::telemetry {

struct SloBudget {
  std::string name;            // unique id; also the breach counter label
  /// Worst-request matching key: the controller reports cold resolves per
  /// service tag.  Empty = no per-request attribution for this budget.
  std::string service;

  // Latency budget: quantile of the watched histogram over the window.
  std::string histogram;       // registry histogram name, e.g.
                               // "edgesim_resolve_seconds"
  Labels labels;               // exact label set of the watched series
  double quantile = 0.95;
  double latencyBudgetSeconds = 0.0;  // <= 0 disables the latency check

  // Error budget: delta(error) / delta(total) over the window.
  std::string errorCounter;    // empty disables the error check
  Labels errorLabels;
  std::string totalCounter;
  Labels totalLabels;
  double maxErrorRatio = -1.0;

  /// Minimum window observations before either check can fire (guards
  /// against quantiles over one request).
  std::uint64_t minWindowSamples = 1;
};

struct SloBreach {
  SimTime at;
  std::string budget;
  std::string kind;            // "latency" | "errors"
  double observed = 0.0;       // quantile seconds, or error ratio
  double budgetValue = 0.0;
  std::uint64_t windowSamples = 0;

  // Offending request (when the budget names a service and a cold resolve
  // was observed in the window).
  trace::RequestId worstRequest = 0;
  double worstSeconds = 0.0;
  std::vector<trace::TraceSpan> worstSpans;

  JsonValue toJson() const;
};

class SloWatchdog {
 public:
  SloWatchdog(Simulation& sim, MetricsRegistry& registry,
              trace::TraceRecorder* trace = nullptr);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  void addBudget(SloBudget budget);

  /// Evaluate all budgets every `period` of sim time.
  void start(SimTime period);
  void stop();

  /// Report a completed request so a breach can name its worst offender.
  /// Owner thread only (the controller calls it on the sim thread).
  void observeRequest(const std::string& service, double seconds,
                      trace::RequestId request);

  /// One evaluation pass; returns the number of breaches recorded.  Public
  /// so tests (and end-of-run hooks) can evaluate without the timer.
  /// Owner thread only.
  std::size_t evaluate();

  const std::vector<SloBreach>& breaches() const { return breaches_; }
  JsonValue breachesJson() const;

 private:
  struct BudgetState {
    SloBudget budget;
    Histogram* histogram = nullptr;       // resolved lazily on first eval
    Counter* breachCounter = nullptr;
    std::vector<std::uint64_t> lastCounts;
    std::uint64_t lastErrors = 0;
    std::uint64_t lastTotal = 0;
  };
  struct WorstRequest {
    double seconds = 0.0;
    trace::RequestId request = 0;
  };

  void recordBreach(BudgetState& state, const std::string& kind,
                    double observed, double budgetValue,
                    std::uint64_t windowSamples);

  Simulation& sim_;
  MetricsRegistry& registry_;
  trace::TraceRecorder* trace_;
  PeriodicTimer timer_;
  std::vector<BudgetState> budgets_;
  std::vector<SloBreach> breaches_;

  OwnerThread owner_;
  std::map<std::string, WorstRequest> worstByService_;
};

}  // namespace edgesim::telemetry
