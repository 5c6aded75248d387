// Network: owns links between node ports and models transmission timing.
//
// Each link direction has a serialisation stage (bandwidth) followed by
// propagation (latency).  Back-to-back packets queue behind each other in
// the serialisation stage (`busyUntil`), which is what makes large image
// pulls slow down concurrent request traffic in the experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/node.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace edgesim {

class Network {
 public:
  explicit Network(Simulation& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulation& sim() const { return sim_; }

  /// Register a node (called from the NetNode constructor).
  NodeId registerNode(NetNode& node);

  /// Wire a bidirectional link; allocates one new port on each node and
  /// returns the pair (port on a, port on b).
  struct LinkPorts {
    PortId portA;
    PortId portB;
  };
  LinkPorts connect(NetNode& a, NetNode& b, SimTime latency,
                    BitRate bandwidth);

  /// Transmit `packet` out of (`node`, `port`); delivers to the peer after
  /// serialisation + propagation.  Dropped (with a log line) if the port is
  /// not wired.
  void transmit(const NetNode& node, PortId port, const Packet& packet);

  /// Peer node of (`node`, `port`), or nullptr if unwired.
  NetNode* peer(const NetNode& node, PortId port) const;

  /// Failure injection: take the link at (`node`, `port`) down (both
  /// directions) or bring it back.  Packets sent over a down link are
  /// silently dropped -- TCP's retransmission/timeout machinery reacts.
  void setLinkUp(const NetNode& node, PortId port, bool up);
  bool linkUp(const NetNode& node, PortId port) const;

  /// Schedule every kLinkDown spec of `plan` matching `label` against the
  /// link at (`node`, `port`): down at spec.at, back up at spec.at +
  /// spec.duration (a zero duration leaves the link down for good).
  void scheduleLinkFaults(const fault::FaultPlan& plan,
                          const std::string& label, const NetNode& node,
                          PortId port);

  std::uint64_t deliveredPackets() const { return delivered_; }
  std::uint64_t droppedPackets() const { return dropped_; }

 private:
  struct HalfLink {
    NetNode* from = nullptr;
    PortId fromPort = 0;
    NetNode* to = nullptr;
    PortId toPort = 0;
    SimTime latency;
    BitRate bandwidth;
    SimTime busyUntil;
    bool up = true;
  };

  /// The half-link leaving (`node`, `port`), or nullptr when the node is
  /// not registered here or the port is not wired.  O(1): indexes the
  /// node's port table.
  HalfLink* findHalf(const NetNode& node, PortId port) const;
  bool owns(const NetNode& node) const {
    return node.id() < nodes_.size() && nodes_[node.id()] == &node;
  }

  Simulation& sim_;
  std::vector<NetNode*> nodes_;
  std::vector<std::unique_ptr<HalfLink>> halves_;
  /// Per node (by NodeId), the half-link leaving each port (by PortId).
  std::vector<std::vector<HalfLink*>> ports_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace edgesim
