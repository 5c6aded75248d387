// OpenFlow actions: output, set-field (packet rewriting), send-to-controller.
//
// Set-field rewriting of destination/source IP + TCP port is the core
// mechanism behind transparent edge access (§II, fig. 2): the client keeps
// talking to the registered cloud address while the switch rewrites packets
// toward the chosen edge instance and back.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace edgesim::openflow {

struct OutputAction {
  PortId port = kInvalidPort;
  bool operator==(const OutputAction&) const = default;
};

struct ToControllerAction {
  bool operator==(const ToControllerAction&) const = default;
};

enum class Field { kEthSrc, kEthDst, kIpSrc, kIpDst, kTcpSrc, kTcpDst };

const char* fieldName(Field field);

struct SetFieldAction {
  Field field;
  std::uint64_t value = 0;  // Ipv4::value, Mac::value, or TCP port

  bool operator==(const SetFieldAction&) const = default;

  static SetFieldAction ethSrc(Mac mac) { return {Field::kEthSrc, mac.value}; }
  static SetFieldAction ethDst(Mac mac) { return {Field::kEthDst, mac.value}; }
  static SetFieldAction ipSrc(Ipv4 ip) { return {Field::kIpSrc, ip.value}; }
  static SetFieldAction ipDst(Ipv4 ip) { return {Field::kIpDst, ip.value}; }
  static SetFieldAction tcpSrc(std::uint16_t p) { return {Field::kTcpSrc, p}; }
  static SetFieldAction tcpDst(std::uint16_t p) { return {Field::kTcpDst, p}; }
};

using Action = std::variant<SetFieldAction, OutputAction, ToControllerAction>;
using ActionList = std::vector<Action>;

/// Apply the set-field actions of `actions`, in order, to `packet` in
/// place.  Returns whether the list also sends the packet to the
/// controller.  Output actions are not effects here: the switch reads them
/// straight from the list and transmits the rewritten packet on each.
bool applyActions(Packet& packet, const ActionList& actions);

std::string actionsToString(const ActionList& actions);

}  // namespace edgesim::openflow
