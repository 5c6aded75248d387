#include "telemetry/slo_watchdog.hpp"

#include <cmath>
#include <utility>

#include "util/strings.hpp"

namespace edgesim::telemetry {

JsonValue SloBreach::toJson() const {
  JsonValue doc = JsonValue::object();
  doc.set("at_s", JsonValue(at.toSeconds()));
  doc.set("budget", JsonValue(budget));
  doc.set("kind", JsonValue(kind));
  doc.set("observed", JsonValue(observed));
  doc.set("budget_value", JsonValue(budgetValue));
  doc.set("window_samples", JsonValue(windowSamples));
  if (worstRequest != 0) {
    doc.set("worst_request", JsonValue(worstRequest));
    doc.set("worst_seconds", JsonValue(worstSeconds));
    JsonValue spans = JsonValue::array();
    for (const trace::TraceSpan& span : worstSpans) {
      JsonValue entry = JsonValue::object();
      entry.set("name", JsonValue(span.name));
      entry.set("category", JsonValue(span.category));
      entry.set("start_s", JsonValue(span.start.toSeconds()));
      entry.set("end_s", JsonValue(span.end.toSeconds()));
      spans.push(std::move(entry));
    }
    doc.set("worst_spans", std::move(spans));
  }
  return doc;
}

SloWatchdog::SloWatchdog(Simulation& sim, MetricsRegistry& registry,
                         trace::TraceRecorder* trace)
    : sim_(sim), registry_(registry), trace_(trace) {}

void SloWatchdog::addBudget(SloBudget budget) {
  BudgetState state;
  state.budget = std::move(budget);
  budgets_.push_back(std::move(state));
}

void SloWatchdog::start(SimTime period) {
  timer_.start(sim_, period, [this] {
    evaluate();
    return true;
  });
}

void SloWatchdog::stop() { timer_.cancel(); }

void SloWatchdog::observeRequest(const std::string& service, double seconds,
                                 trace::RequestId request) {
  owner_.check("SloWatchdog");
  WorstRequest& worst = worstByService_[service];
  if (request != 0 && seconds >= worst.seconds) {
    worst = {seconds, request};
  }
}

std::size_t SloWatchdog::evaluate() {
  owner_.check("SloWatchdog");
  std::size_t fired = 0;
  for (BudgetState& state : budgets_) {
    const SloBudget& budget = state.budget;

    if (!budget.histogram.empty() && budget.latencyBudgetSeconds > 0.0) {
      if (state.histogram == nullptr) {
        state.histogram = &registry_.histogram(budget.histogram, budget.labels);
        state.lastCounts.assign(Histogram::kBuckets, 0);
      }
      std::vector<std::uint64_t> window;
      const std::uint64_t windowSamples = Histogram::deltaCounts(
          state.histogram->bucketCounts(), state.lastCounts, window);
      if (windowSamples >= budget.minWindowSamples && windowSamples > 0) {
        const double q = Histogram::quantileFromCounts(window, budget.quantile);
        if (q > budget.latencyBudgetSeconds) {
          recordBreach(state, "latency", q, budget.latencyBudgetSeconds,
                       windowSamples);
          ++fired;
        }
      }
    }

    if (!budget.errorCounter.empty() && budget.maxErrorRatio >= 0.0) {
      const std::uint64_t errors =
          registry_.counter(budget.errorCounter, budget.errorLabels).value();
      const std::uint64_t total =
          registry_.counter(budget.totalCounter, budget.totalLabels).value();
      const std::uint64_t errorDelta = errors - state.lastErrors;
      const std::uint64_t totalDelta = total - state.lastTotal;
      state.lastErrors = errors;
      state.lastTotal = total;
      if (totalDelta >= budget.minWindowSamples && totalDelta > 0) {
        const double ratio = static_cast<double>(errorDelta) /
                             static_cast<double>(totalDelta);
        if (ratio > budget.maxErrorRatio) {
          recordBreach(state, "errors", ratio, budget.maxErrorRatio,
                       totalDelta);
          ++fired;
        }
      }
    }
  }
  // New window: worst-request attribution starts over.
  worstByService_.clear();
  return fired;
}

void SloWatchdog::recordBreach(BudgetState& state, const std::string& kind,
                               double observed, double budgetValue,
                               std::uint64_t windowSamples) {
  const SloBudget& budget = state.budget;
  SloBreach breach;
  breach.at = sim_.now();
  breach.budget = budget.name;
  breach.kind = kind;
  breach.observed = observed;
  breach.budgetValue = budgetValue;
  breach.windowSamples = windowSamples;

  if (!budget.service.empty()) {
    const auto it = worstByService_.find(budget.service);
    if (it != worstByService_.end()) {
      breach.worstRequest = it->second.request;
      breach.worstSeconds = it->second.seconds;
    }
  }
  if (trace_ != nullptr && breach.worstRequest != 0) {
    for (const trace::TraceSpan& span : trace_->spans()) {
      if (span.request == breach.worstRequest) {
        breach.worstSpans.push_back(span);
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->instant(
        breach.worstRequest, "slo-breach", "telemetry", sim_.now(),
        {{"budget", budget.name},
         {"kind", kind},
         {"observed", strprintf("%.6g", observed)},
         {"budget_value", strprintf("%.6g", budgetValue)},
         {"window_samples", std::uint64_t{windowSamples}}});
  }
  if (state.breachCounter == nullptr) {
    state.breachCounter = &registry_.counter("edgesim_slo_breaches_total",
                                             {{"budget", budget.name}});
  }
  state.breachCounter->add();
  breaches_.push_back(std::move(breach));
}

JsonValue SloWatchdog::breachesJson() const {
  JsonValue array = JsonValue::array();
  for (const SloBreach& breach : breaches_) array.push(breach.toJson());
  return array;
}

}  // namespace edgesim::telemetry
