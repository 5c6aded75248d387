// Network node and port abstraction.
//
// A node owns numbered ports; the `Network` wires ports together with
// `Link`s.  Nodes receive packets via `receive(packet, inPort)` and send by
// asking the network to transmit out of one of their ports.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"

namespace edgesim {

class Network;

using NodeId = std::uint32_t;
using PortId = std::uint32_t;

inline constexpr PortId kInvalidPort = 0xffffffff;

class NetNode {
 public:
  NetNode(Network& network, std::string name);
  virtual ~NetNode() = default;

  NetNode(const NetNode&) = delete;
  NetNode& operator=(const NetNode&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Network& network() const { return network_; }

  /// Handle a packet arriving on `inPort`.
  virtual void receive(const Packet& packet, PortId inPort) = 0;

  /// Number of ports currently wired (assigned by Network::connect).
  PortId portCount() const { return portCount_; }

 private:
  friend class Network;
  PortId allocatePort() { return portCount_++; }

  Network& network_;
  std::string name_;
  NodeId id_ = 0;
  PortId portCount_ = 0;
};

}  // namespace edgesim
