// Per-layer probes for the traced run.
//
// Each probe measures one layer from outside, through its public API only:
// a timing proxy in front of the controller's OpenFlow handlers, and
// standalone micro-probes of the event engine, the network and the flow
// table sized and fed like the workload that was just run.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "core/controller.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/switch.hpp"

namespace pathbench {

/// ControllerApp installed with OpenFlowSwitch::setController in front of
/// the EdgeController: forwards every packet-in and flow-removed and adds
/// the handler's wall time to busySeconds().
class TimedController final : public edgesim::openflow::ControllerApp {
 public:
  explicit TimedController(edgesim::core::EdgeController& inner)
      : inner_(inner) {}

  void onPacketIn(edgesim::openflow::OpenFlowSwitch& sw,
                  const edgesim::openflow::PacketIn& event) override;
  void onFlowRemoved(edgesim::openflow::OpenFlowSwitch& sw,
                     const edgesim::openflow::FlowRemoved& event) override;

  double busySeconds() const {
    return std::chrono::duration<double>(busy_).count();
  }

 private:
  edgesim::core::EdgeController& inner_;
  std::chrono::steady_clock::duration busy_{};
};

/// Host ns per event for schedule() + step() of a no-op event on a
/// standalone Simulation whose heap is pre-filled with `heapDepth`
/// far-future entries (the dead timers a loaded testbed carries).
double probeEventNs(std::size_t heapDepth);

/// Host ns per Network::transmit on a standalone star of `links` links,
/// averaged over every (node, port) that can send.
double probeTransmitNs(std::size_t links);

struct FlowTableProbe {
  /// lookup() of the workload packet whose entry sits deepest in the table.
  double lookupWorstNs = 0;
  /// lookup() averaged over one packet per redirect entry (the real mix).
  double lookupMeanNs = 0;
  /// upsert() re-installing redirect entries that had expired.
  double upsertNs = 0;
  /// One expire() sweep at the switch's next scan time.
  double expireSweepUs = 0;
};

/// Rebuild a standalone FlowTable from `entries` (a switch snapshot taken
/// at `at`) and time lookup, upsert and expire on it.  `sweepPeriod` is the
/// switch's expiry scan period.
FlowTableProbe probeFlowTable(
    const std::vector<edgesim::openflow::FlowEntry>& entries,
    edgesim::SimTime at, edgesim::SimTime sweepPeriod);

}  // namespace pathbench
