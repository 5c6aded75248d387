#include "overload/governor.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace edgesim::overload {

const char* shedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kBudgetExpired: return "budget_expired";
    case ShedReason::kDeployCap: return "deploy_cap";
  }
  return "?";
}

Result<OverloadOptions> OverloadOptions::fromConfig(const Config& config) {
  OverloadOptions options;
  ConfigReader reader(config);
  reader.read("overload_enabled", options.enabled);
  reader.readMillis("overload_request_budget_ms", options.requestBudget);
  reader.read("overload_max_deploys_per_cluster",
              options.maxDeploysPerCluster);
  reader.read("overload_breaker_enabled", options.breakerEnabled);
  reader.readMillis("overload_breaker_window_ms", options.breaker.window);
  reader.read("overload_breaker_min_samples", options.breaker.minSamples);
  reader.read("overload_breaker_failure_ratio", options.breaker.failureRatio);
  double latencyMs = options.breaker.latencyThresholdSeconds * 1e3;
  reader.read("overload_breaker_latency_threshold_ms", latencyMs);
  options.breaker.latencyThresholdSeconds = latencyMs / 1e3;
  reader.readMillis("overload_breaker_cooldown_ms",
                    options.breaker.openCooldown);
  reader.read("overload_brownout_shed_threshold",
              options.brownoutShedThreshold);
  reader.readMillis("overload_brownout_window_ms", options.brownoutWindow);
  reader.readMillis("overload_brownout_min_dwell_ms",
                    options.brownoutMinDwell);
  if (Status status = reader.finish(); !status.ok()) return status.error();
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
