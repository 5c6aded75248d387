#include "overload/governor.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace edgesim::overload {

const char* shedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kBudgetExpired: return "budget_expired";
    case ShedReason::kDeployCap: return "deploy_cap";
  }
  return "?";
}

OverloadOptions OverloadOptions::fromConfig(const Config& config) {
  OverloadOptions options;
  options.enabled = config.getBoolOr("overload_enabled", options.enabled);
  options.laneQueueCapacity = static_cast<std::size_t>(config.getIntOr(
      "overload_lane_queue_capacity",
      static_cast<std::int64_t>(options.laneQueueCapacity)));
  options.shedPolicy =
      config.getStringOr("overload_shed_policy", options.shedPolicy);
  options.requestBudget = SimTime::millis(config.getIntOr(
      "overload_request_budget_ms",
      options.requestBudget.toNanos() / 1000000));
  options.maxDeploysPerCluster = static_cast<int>(config.getIntOr(
      "overload_max_deploys_per_cluster", options.maxDeploysPerCluster));
  options.breakerEnabled =
      config.getBoolOr("overload_breaker_enabled", options.breakerEnabled);
  options.breaker.window = SimTime::millis(config.getIntOr(
      "overload_breaker_window_ms", options.breaker.window.toNanos() / 1000000));
  options.breaker.minSamples = static_cast<std::uint64_t>(config.getIntOr(
      "overload_breaker_min_samples",
      static_cast<std::int64_t>(options.breaker.minSamples)));
  options.breaker.failureRatio = config.getDoubleOr(
      "overload_breaker_failure_ratio", options.breaker.failureRatio);
  options.breaker.latencyThresholdSeconds =
      config.getDoubleOr("overload_breaker_latency_threshold_ms",
                         options.breaker.latencyThresholdSeconds * 1e3) /
      1e3;
  options.breaker.openCooldown = SimTime::millis(config.getIntOr(
      "overload_breaker_cooldown_ms",
      options.breaker.openCooldown.toNanos() / 1000000));
  options.brownoutShedThreshold = static_cast<std::uint64_t>(config.getIntOr(
      "overload_brownout_shed_threshold",
      static_cast<std::int64_t>(options.brownoutShedThreshold)));
  options.brownoutWindow = SimTime::millis(config.getIntOr(
      "overload_brownout_window_ms",
      options.brownoutWindow.toNanos() / 1000000));
  options.brownoutMinDwell = SimTime::millis(config.getIntOr(
      "overload_brownout_min_dwell_ms",
      options.brownoutMinDwell.toNanos() / 1000000));
  return options;
}

OverloadGovernor::OverloadGovernor(OverloadOptions options,
                                   telemetry::MetricsRegistry* telemetry)
    : options_(std::move(options)),
      telemetry_(telemetry),
      ledger_(telemetry != nullptr ? *telemetry : ownRegistry_) {
  for (std::size_t i = 0; i < kShedReasonCount; ++i) {
    shedCtr_[i] = &ledger_.counter(
        "edgesim_shed_total",
        {{"reason", shedReasonName(static_cast<ShedReason>(i))}});
  }
  brownoutEnterCtr_ = &ledger_.counter("edgesim_brownout_transitions_total",
                                       {{"to", "active"}});
  brownoutExitCtr_ = &ledger_.counter("edgesim_brownout_transitions_total",
                                      {{"to", "inactive"}});
  brownoutRedirects_ = &ledger_.counter("edgesim_brownout_redirects_total");
  if (telemetry_ != nullptr) {
    brownoutGauge_ = &telemetry_->gauge("edgesim_brownout_active");
    deployTokenGauge_ = &telemetry_->gauge("edgesim_deploy_tokens_in_use");
  }
}

void OverloadGovernor::noteShed(ShedReason reason) {
  shedCtr_[static_cast<std::size_t>(reason)]->add();
}

std::uint64_t OverloadGovernor::shedCount() const {
  std::uint64_t total = 0;
  for (const telemetry::Counter* counter : shedCtr_) total += counter->value();
  return total;
}

CircuitBreaker& OverloadGovernor::breaker(const std::string& cluster) {
  auto it = breakers_.find(cluster);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(cluster, std::make_unique<CircuitBreaker>(
                                   cluster, options_.breaker, telemetry_))
             .first;
  }
  return *it->second;
}

bool OverloadGovernor::clusterAllowed(const std::string& cluster,
                                      SimTime now) {
  if (!options_.breakerEnabled) return true;
  return breaker(cluster).allow(now);
}

bool OverloadGovernor::tryAcquireDeployToken(const std::string& cluster) {
  if (options_.maxDeploysPerCluster <= 0) return true;
  int& inUse = deployTokens_[cluster];
  if (inUse >= options_.maxDeploysPerCluster) return false;
  ++inUse;
  if (deployTokenGauge_ != nullptr) deployTokenGauge_->add(1);
  return true;
}

void OverloadGovernor::releaseDeployToken(const std::string& cluster) {
  if (options_.maxDeploysPerCluster <= 0) return;
  int& inUse = deployTokens_[cluster];
  ES_ASSERT_MSG(inUse > 0, "deploy token released without acquire");
  --inUse;
  if (deployTokenGauge_ != nullptr) deployTokenGauge_->add(-1);
}

int OverloadGovernor::deployTokensInUse(const std::string& cluster) const {
  const auto it = deployTokens_.find(cluster);
  return it == deployTokens_.end() ? 0 : it->second;
}

bool OverloadGovernor::brownoutActive(SimTime now) {
  if (options_.brownoutShedThreshold == 0) return false;
  const std::uint64_t total = shedCount();
  // Roll the rolling window forward; remember the last instant the shed
  // rate was still over the threshold so the dwell extends under sustained
  // pressure instead of flapping.
  if (now - windowStart_ >= options_.brownoutWindow) {
    windowStart_ = now;
    shedAtWindowStart_ = total;
  }
  const std::uint64_t inWindow = total - shedAtWindowStart_;
  const bool over = inWindow >= options_.brownoutShedThreshold;
  if (over) brownoutLastOver_ = now;
  if (!brownout_ && over) {
    brownout_ = true;
    brownoutEnterCtr_->add();
    if (brownoutGauge_ != nullptr) brownoutGauge_->set(1);
    ES_WARN("overload", "BROWNOUT at t=%.3fs: %llu sheds within %.2fs "
            "(threshold %llu); forcing without-waiting redirects",
            now.toSeconds(), static_cast<unsigned long long>(inWindow),
            options_.brownoutWindow.toSeconds(),
            static_cast<unsigned long long>(options_.brownoutShedThreshold));
  } else if (brownout_ && !over &&
             now - brownoutLastOver_ >= options_.brownoutMinDwell) {
    brownout_ = false;
    brownoutExitCtr_->add();
    if (brownoutGauge_ != nullptr) brownoutGauge_->set(0);
    ES_INFO("overload", "brownout cleared at t=%.3fs", now.toSeconds());
  }
  return brownout_;
}

}  // namespace edgesim::overload
