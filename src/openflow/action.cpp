#include "openflow/action.hpp"

#include "util/strings.hpp"

namespace edgesim::openflow {

const char* fieldName(Field field) {
  switch (field) {
    case Field::kEthSrc: return "eth_src";
    case Field::kEthDst: return "eth_dst";
    case Field::kIpSrc: return "ip_src";
    case Field::kIpDst: return "ip_dst";
    case Field::kTcpSrc: return "tcp_src";
    case Field::kTcpDst: return "tcp_dst";
  }
  return "?";
}

bool applyActions(Packet& packet, const ActionList& actions) {
  bool toController = false;
  for (const auto& action : actions) {
    if (const auto* set = std::get_if<SetFieldAction>(&action)) {
      switch (set->field) {
        case Field::kEthSrc:
          packet.ethSrc = Mac(set->value);
          break;
        case Field::kEthDst:
          packet.ethDst = Mac(set->value);
          break;
        case Field::kIpSrc:
          packet.ipSrc = Ipv4(static_cast<std::uint32_t>(set->value));
          break;
        case Field::kIpDst:
          packet.ipDst = Ipv4(static_cast<std::uint32_t>(set->value));
          break;
        case Field::kTcpSrc:
          packet.tcpSrc = static_cast<std::uint16_t>(set->value);
          break;
        case Field::kTcpDst:
          packet.tcpDst = static_cast<std::uint16_t>(set->value);
          break;
      }
    } else if (std::holds_alternative<ToControllerAction>(action)) {
      toController = true;
    }
  }
  return toController;
}

std::string actionsToString(const ActionList& actions) {
  std::vector<std::string> parts;
  for (const auto& action : actions) {
    if (const auto* set = std::get_if<SetFieldAction>(&action)) {
      parts.push_back(strprintf("set(%s=%llu)", fieldName(set->field),
                                static_cast<unsigned long long>(set->value)));
    } else if (const auto* output = std::get_if<OutputAction>(&action)) {
      parts.push_back(strprintf("output(%u)", output->port));
    } else {
      parts.push_back("controller");
    }
  }
  return join(parts, ",");
}

}  // namespace edgesim::openflow
