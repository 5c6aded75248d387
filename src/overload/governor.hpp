// OverloadGovernor: the one object that decides, under pressure, which
// work the controller keeps and which it sheds.
//
// The paper's controller sits on the first packet of every flow, so a
// flash crowd turns it into the system's choke point.  The governor
// composes two mechanisms, applied in order along the request path, all in
// simulated time:
//
//   budget      every request carries a deadline from packet_in onward;
//               an expired budget fails fast to the cloud instead of
//               occupying a deployment slot.  The dispatcher additionally
//               caps concurrent deployments per cluster (deploy tokens).
//   breaker     per-cluster circuit breakers route around a sick cluster
//               BEFORE quarantine (which only fires after a full retry
//               budget burns); see overload/circuit_breaker.hpp.
//
// Sustained shedding flips the governor into BROWNOUT: the dispatcher then
// forces the paper's "without waiting" behaviour (§IV, figs. 14-15) --
// cold requests are answered from a ready (cloud) instance immediately
// while the edge deployment proceeds in the background.
//
// Counts live only in the MetricsRegistry (shed by reason, brownout
// transitions and redirects): the caller's registry, or a private one when
// the caller passes none, so the accessors work either way.
//
// Thread model: the governor runs on the simulation thread only (the
// Dispatcher's control lane), like the rest of the controller.
//
// Disabled (the default): nothing constructs a governor and every hot-path
// hook is a null check, so determinism goldens stay bit-identical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "overload/circuit_breaker.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics_registry.hpp"
#include "util/config.hpp"

namespace edgesim::overload {

/// Why a request was shed (also the `reason` label of edgesim_shed_total).
enum class ShedReason {
  kBudgetExpired = 0,  // deadline blown while resolving
  kDeployCap = 1,      // per-cluster deploy tokens exhausted
};
inline constexpr std::size_t kShedReasonCount = 2;

const char* shedReasonName(ShedReason reason);

struct OverloadOptions {
  /// Master switch; everything below is inert when false.
  bool enabled = false;

  // ---- deadline budgets ---------------------------------------------------
  /// Sim-time budget a request carries from packet_in; zero = no budget.
  SimTime requestBudget = SimTime::seconds(2.0);

  // ---- deployment token limiter -------------------------------------------
  /// Concurrent deployments allowed per cluster; 0 = unlimited.
  int maxDeploysPerCluster = 4;

  // ---- circuit breakers ---------------------------------------------------
  bool breakerEnabled = true;
  BreakerOptions breaker;

  // ---- brownout -----------------------------------------------------------
  /// Enter brownout when this many requests were shed within
  /// `brownoutWindow`; stay at least `brownoutMinDwell` once entered.
  /// 0 disables brownout.
  std::uint64_t brownoutShedThreshold = 64;
  SimTime brownoutWindow = SimTime::seconds(1.0);
  SimTime brownoutMinDwell = SimTime::seconds(5.0);

  /// Keys: overload_enabled, overload_request_budget_ms,
  /// overload_max_deploys_per_cluster, overload_breaker_enabled,
  /// overload_breaker_window_ms, overload_breaker_min_samples,
  /// overload_breaker_failure_ratio, overload_breaker_latency_threshold_ms,
  /// overload_breaker_cooldown_ms, overload_brownout_shed_threshold,
  /// overload_brownout_window_ms, overload_brownout_min_dwell_ms.  Any
  /// other key, an unparseable value or a negative number is an error.
  static Result<OverloadOptions> fromConfig(const Config& config);
};

class OverloadGovernor {
 public:
  /// `telemetry` (optional) exports the gauges and breaker series and
  /// holds the counters; without it the counters go to a private registry.
  /// Handles resolve once here so noteShed() stays hot-path safe.
  OverloadGovernor(OverloadOptions options,
                   telemetry::MetricsRegistry* telemetry = nullptr);

  OverloadGovernor(const OverloadGovernor&) = delete;
  OverloadGovernor& operator=(const OverloadGovernor&) = delete;

  const OverloadOptions& options() const { return options_; }

  // ---- shed accounting ----------------------------------------------------
  void noteShed(ShedReason reason);
  std::uint64_t shedCount() const;
  std::uint64_t shedCount(ShedReason reason) const {
    return shedCtr_[static_cast<std::size_t>(reason)]->value();
  }

  // ---- per-cluster breakers (simulation thread) ---------------------------
  /// Lazily-created breaker for `cluster`; creation registers its
  /// telemetry series.
  CircuitBreaker& breaker(const std::string& cluster);
  /// False when the cluster's breaker short-circuits requests right now.
  /// Always true when breakers are disabled.
  bool clusterAllowed(const std::string& cluster, SimTime now);

  // ---- deployment tokens (simulation thread) ------------------------------
  /// Reserve a deployment slot on `cluster`; false when the cap is reached.
  /// Every successful acquire must be released when the deployment settles.
  bool tryAcquireDeployToken(const std::string& cluster);
  void releaseDeployToken(const std::string& cluster);
  int deployTokensInUse(const std::string& cluster) const;

  // ---- brownout (simulation thread) ---------------------------------------
  /// Evaluate + report brownout at `now`.  Enters when the shed count within
  /// the rolling window crosses the threshold; exits `brownoutMinDwell`
  /// after the last window that was still over it.
  bool brownoutActive(SimTime now);
  std::uint64_t brownoutEntries() const { return brownoutEnterCtr_->value(); }

 private:
  OverloadOptions options_;
  telemetry::MetricsRegistry* telemetry_;
  /// Counter store: `telemetry`, or ownRegistry_ when that is null.
  telemetry::MetricsRegistry ownRegistry_;
  telemetry::MetricsRegistry& ledger_;

  telemetry::Counter* shedCtr_[kShedReasonCount] = {};

  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::map<std::string, int> deployTokens_;
  telemetry::Gauge* deployTokenGauge_ = nullptr;

  // Brownout window state (sim thread only).
  SimTime windowStart_;
  std::uint64_t shedAtWindowStart_ = 0;
  bool brownout_ = false;
  SimTime brownoutLastOver_;
  telemetry::Gauge* brownoutGauge_ = nullptr;
  telemetry::Counter* brownoutEnterCtr_ = nullptr;
  telemetry::Counter* brownoutExitCtr_ = nullptr;
  telemetry::Counter* brownoutRedirects_ = nullptr;

 public:
  /// Counter bumped by the dispatcher for each brownout-forced redirect.
  telemetry::Counter& brownoutRedirectCounter() { return *brownoutRedirects_; }
};

}  // namespace edgesim::overload
