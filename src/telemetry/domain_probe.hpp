// DomainProbe: the telemetry-side implementation of sim::DomainObserver.
//
// Attaching a probe wires the parallel discrete-event core into the
// MetricsRegistry and (optionally) a TraceRecorder:
//
//   counters     edgesim_domain_events_total{domain,name}
//                edgesim_domain_clock_lifts_total{domain,name}
//                edgesim_domain_stalls_total{domain,bound_by}
//                edgesim_domain_channel_messages_total{from,to}
//                edgesim_domain_watchdog_wakes_total{result}
//                edgesim_domain_watchdog_passes_total
//   histograms   edgesim_domain_advance_seconds{domain,name}      (wall)
//                edgesim_domain_stall_wall_seconds{domain,name}
//                edgesim_domain_stall_sim_seconds{domain,name}
//   gauges (fn)  edgesim_domain_heap_depth{domain,name}
//                edgesim_domain_clock_lag_seconds{domain,name}
//                edgesim_domain_channel_lookahead_seconds{from,to[,via]}
//                edgesim_domain_channel_inbox_depth{from,to}
//
// STALL SEMANTICS: a domain is "stalled" from the end of an advance slice
// that left it blocked below the horizon (an inbound channel's safeBound
// gates a live local event) until the start of the next slice that makes
// progress (or reaches the horizon).  The stall is attributed to the
// channel whose bound was the minimum when the domain gave up -- the
// `bound_by` label carries that channel's SOURCE domain id.  Wall duration
// includes the time the domain spent waiting between slices (that is the
// point); sim duration is how far the domain's own clock moved across the
// stall.  Redundant watchdog wakes do not close a stall.
//
// TRACING (off unless a recorder is passed): the probe records a separate
// WALL-CLOCK timeline -- SimTime stamps are nanoseconds since probe
// construction, NOT sim time -- with one track per domain (pid 2 in the
// Chrome export): "advance" slices that dispatched events, closed "stall"
// spans (args: bound_by), and zero-duration "xdom-send"/"xdom-recv" span
// pairs linked by flow arrows.  tools/critical_path consumes this file.
//
// Lifetime: the probe registers itself via Simulation::setDomainObserver in
// the constructor and detaches in the destructor.  Construct after all
// domains/channels exist; keep sim, registry and recorder alive until the
// last snapshot/export; never destroy mid-run.  Thread safety follows the
// DomainObserver contract (per-domain state is advancing-thread-confined;
// counters/histograms are striped; the recorder is thread-safe).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/domain_observer.hpp"
#include "sim/simulation.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace edgesim::telemetry {

class DomainProbe final : public DomainObserver {
 public:
  /// `registry` and/or `recorder` may be null: null registry = trace only,
  /// null recorder = metrics only (the cheap mode benches leave tracing off).
  DomainProbe(Simulation& sim, MetricsRegistry* registry,
              trace::TraceRecorder* recorder = nullptr);
  ~DomainProbe() override;

  DomainProbe(const DomainProbe&) = delete;
  DomainProbe& operator=(const DomainProbe&) = delete;

  // ---- DomainObserver -----------------------------------------------------
  void onAdvance(const AdvanceInfo& info) override;
  std::uint64_t onCrossSend(DomainId from, DomainId to, SimTime when) override;
  void onCrossReceive(std::uint64_t flow, DomainId from, DomainId to,
                      SimTime when) override;
  void onWatchdogPass() override;
  void onWatchdogWake(DomainId domain, bool productive) override;

 private:
  struct alignas(64) DomainState {
    Counter* events = nullptr;
    Counter* lifts = nullptr;
    Histogram* advanceWall = nullptr;
    Histogram* stallWall = nullptr;
    Histogram* stallSim = nullptr;
    // Stall bookkeeping; touched only by the domain's advancing thread.
    bool stalled = false;
    DomainId boundedBy = kNoDomainId;
    std::chrono::steady_clock::time_point stallStartWall;
    SimTime stallStartSim;
  };

  static std::uint64_t pairKey(DomainId from, DomainId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Counter for sends from->to; resolved lazily for pairs without a
  /// channel (sequential multi-domain runs bypass channels).
  Counter* messageCounter(DomainId from, DomainId to);
  Counter* stallCounter(DomainId domain, DomainId boundedBy);
  void closeStall(DomainState& state, DomainId domain,
                  std::chrono::steady_clock::time_point end, SimTime simNow);

  /// Wall stamp on the probe's trace timeline: nanoseconds since
  /// construction, carried in the SimTime slot of the recorder API.
  SimTime wallStamp(std::chrono::steady_clock::time_point tp) const {
    return SimTime::nanos(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
            .count());
  }

  Simulation& sim_;
  MetricsRegistry* registry_;
  trace::TraceRecorder* recorder_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<DomainState>> domains_;
  Counter* watchdogPasses_ = nullptr;
  Counter* watchdogProductive_ = nullptr;
  Counter* watchdogRedundant_ = nullptr;
  std::atomic<std::uint64_t> nextFlow_{0};

  std::mutex lazyMutex_;  // guards lazy inserts into the maps below
  std::unordered_map<std::uint64_t, Counter*> messageCounters_;
  std::unordered_map<std::uint64_t, Counter*> stallCounters_;
};

}  // namespace edgesim::telemetry
