// OpenFlow switch: flow-table pipeline, packet buffering, and the control
// channel to the SDN controller.
//
// Behaviour follows the OpenFlow 1.5 subset the paper relies on:
//   * table-miss sends PacketIn (with a buffer id) to the controller;
//   * FlowMod installs/removes entries; PacketOut releases buffered packets
//     through an action list;
//   * idle/hard timeouts expire entries, optionally notifying the
//     controller with FlowRemoved (the controller's FlowMemory consumes
//     these to track liveness, §V).
// Both control-channel directions pay a configurable latency.
//
// Control-channel faults (PR 10): a FaultPlan threaded in via setFaultPlan
// makes the channel lossy.  kControlChannelLoss drops (or stalls)
// individual messages per direction ("<name>/c2s", "<name>/s2c");
// kControlChannelOutage scripts windows where every message dies;
// kSwitchRestart wipes the flow table and packet buffers mid-run (no
// FlowRemoved fires -- the crash loses them) and holds the switch down for
// the restore delay.  sendFlowMod optionally carries a barrier-style ack
// delivered after the full round trip, so the controller can detect lost
// installs and retry (see core::EdgeController).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "openflow/flow_table.hpp"

namespace edgesim::telemetry {
class MetricsRegistry;
class Counter;
}  // namespace edgesim::telemetry
namespace edgesim::trace {
class TraceRecorder;
}  // namespace edgesim::trace

namespace edgesim::openflow {

using BufferId = std::uint32_t;
inline constexpr BufferId kNoBuffer = 0xffffffff;

struct PacketIn {
  BufferId bufferId = kNoBuffer;
  Packet packet;
  PortId inPort = kInvalidPort;
};

struct FlowRemoved {
  FlowEntry entry;
  RemovalReason reason = RemovalReason::kDelete;
};

class OpenFlowSwitch;

/// Controller side of the OpenFlow channel.
class ControllerApp {
 public:
  virtual ~ControllerApp() = default;
  virtual void onPacketIn(OpenFlowSwitch& sw, const PacketIn& event) = 0;
  virtual void onFlowRemoved(OpenFlowSwitch& sw, const FlowRemoved& event) = 0;
};

/// Switch configuration.
struct SwitchOptions {
  SimTime channelLatency = SimTime::micros(200);  // one-way, per message
  SimTime expiryScanPeriod = SimTime::millis(500);
  std::size_t maxBufferedPackets = 1024;
};

class OpenFlowSwitch : public NetNode {
 public:
  using Options = SwitchOptions;

  OpenFlowSwitch(Network& network, std::string name, Options options = {});

  /// Attach the controller and start the expiry scanner.
  void setController(ControllerApp* controller);

  /// Thread control-channel faults into this switch, the way
  /// Network::scheduleLinkFaults threads link faults: loss specs are drawn
  /// per message, outage windows and restarts are scheduled up front from
  /// their at/duration scripts.  Call before the simulation runs.
  void setFaultPlan(fault::FaultPlan* plan);

  /// Optional observability sinks; series register lazily on first use so
  /// fault-free runs keep their telemetry snapshots byte-stable.
  void setTelemetry(telemetry::MetricsRegistry* metrics,
                    trace::TraceRecorder* recorder);

  // -- data plane ---------------------------------------------------------
  void receive(const Packet& packet, PortId inPort) override;

  // -- control plane (controller -> switch; pays channel latency) ---------
  /// Install or replace a flow entry.  When `ack` is non-null it is invoked
  /// after the full control round trip (install applied, barrier reply
  /// delivered) -- and never invoked if either direction drops the message
  /// or the switch is down, which is exactly the signal the controller's
  /// ack-deadline retry needs.
  using FlowModAck = std::function<void()>;
  void sendFlowMod(FlowEntry entry, FlowModAck ack = nullptr);
  /// Remove entries matching exactly.
  void sendFlowRemove(const FlowMatch& match, std::uint64_t cookie = 0);
  /// Release a buffered packet (or inject `packet` when bufferId is
  /// kNoBuffer) through `actions`.
  void sendPacketOut(BufferId bufferId, const Packet& packet,
                     const ActionList& actions);
  /// Flow statistics request (OFPMP_FLOW): snapshot of all entries,
  /// delivered after a full control-channel round trip.  The controller's
  /// FlowMemory uses this to observe traffic on long-lived entries that
  /// never idle out (§V).
  using StatsCallback = std::function<void(const std::vector<FlowEntry>&)>;
  void requestFlowStats(StatsCallback cb);
  /// Flow-activity request: the same control-channel round trip as
  /// requestFlowStats (same delays, same fault draws), but the reply holds
  /// only the entries used at or after `since` -- (match, stats), no
  /// actions, newest first -- and the switch's clock when it took them.
  /// The shape of an OpenFlow 1.4+ flow monitor's report: what moved, not
  /// the table.
  using ActivityCallback =
      std::function<void(SimTime takenAt, const std::vector<FlowActivity>&)>;
  void requestFlowActivity(SimTime since, ActivityCallback cb);

  // -- introspection ------------------------------------------------------
  FlowTable& table() { return table_; }
  const FlowTable& table() const { return table_; }
  std::uint64_t packetInCount() const { return packetIns_; }
  std::uint64_t tableMissCount() const { return tableMisses_; }
  std::uint64_t matchedPackets() const { return matched_; }
  std::size_t bufferedPackets() const { return buffers_.size(); }
  const Options& options() const { return options_; }

  /// Buffered packets silently dropped by FIFO eviction (satellite fix:
  /// this loss used to be invisible).
  std::uint64_t bufferEvictions() const { return bufferEvictions_; }
  /// Control messages dropped by loss/outage/restart faults, both
  /// directions combined.
  std::uint64_t controlDrops() const { return controlDrops_; }
  std::uint64_t restartCount() const { return restarts_; }
  /// False inside a scripted kControlChannelOutage window.
  bool channelUp() const { return outageDepth_ == 0; }
  /// True while a kSwitchRestart keeps the switch down (restore delay).
  bool rebooting() const { return rebooting_; }

 private:
  enum class Direction { kToSwitch, kToController };

  void execute(const Packet& packet, PortId inPort, const ActionList& actions);
  void sendPacketInToController(const Packet& packet, PortId inPort);
  /// Delivery delay for one control message, or nullopt when a fault drops
  /// it (outage window, loss draw, or the switch being down).
  std::optional<SimTime> controlDelay(Direction direction);
  void beginRestart(SimTime restoreDelay);
  void countControlDrop(Direction direction);
  void countEviction(const Packet& packet);
  /// One request/reply round trip on the control channel: `take` runs at
  /// the switch when the request lands (not while it reboots), `deliver`
  /// gets its result when the reply reaches the controller.  Either leg
  /// may be lost, and then `deliver` never runs.
  template <typename Take, typename Deliver>
  void roundTrip(Take take, Deliver deliver);

  Options options_;
  FlowTable table_;
  ControllerApp* controller_ = nullptr;
  fault::FaultPlan* plan_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  trace::TraceRecorder* trace_ = nullptr;
  std::unordered_map<BufferId, std::pair<Packet, PortId>> buffers_;
  std::deque<BufferId> bufferOrder_;  // FIFO eviction
  BufferId nextBufferId_ = 1;
  PeriodicTimer expiryTimer_;
  std::uint64_t packetIns_ = 0;
  std::uint64_t tableMisses_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t bufferEvictions_ = 0;
  std::uint64_t controlDrops_ = 0;
  std::uint64_t restarts_ = 0;
  int outageDepth_ = 0;
  bool rebooting_ = false;
  // Lazily-registered series (see setTelemetry).
  telemetry::Counter* evictionCounter_ = nullptr;
  telemetry::Counter* restartCounter_ = nullptr;
  telemetry::Counter* dropC2sCounter_ = nullptr;
  telemetry::Counter* dropS2cCounter_ = nullptr;
};

}  // namespace edgesim::openflow
