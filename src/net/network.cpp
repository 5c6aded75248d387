#include "net/network.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace edgesim {

NetNode::NetNode(Network& network, std::string name)
    : network_(network), name_(std::move(name)) {
  id_ = network.registerNode(*this);
}

NodeId Network::registerNode(NetNode& node) {
  nodes_.push_back(&node);
  ports_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

Network::LinkPorts Network::connect(NetNode& a, NetNode& b, SimTime latency,
                                    BitRate bandwidth) {
  ES_ASSERT_MSG(owns(a) && owns(b), "connect across networks");
  const PortId portA = a.allocatePort();
  const PortId portB = b.allocatePort();
  halves_.push_back(std::make_unique<HalfLink>(
      HalfLink{&a, portA, &b, portB, latency, bandwidth, SimTime::zero()}));
  ports_[a.id()].resize(a.portCount(), nullptr);
  ports_[a.id()][portA] = halves_.back().get();
  halves_.push_back(std::make_unique<HalfLink>(
      HalfLink{&b, portB, &a, portA, latency, bandwidth, SimTime::zero()}));
  ports_[b.id()].resize(b.portCount(), nullptr);
  ports_[b.id()][portB] = halves_.back().get();
  return LinkPorts{portA, portB};
}

Network::HalfLink* Network::findHalf(const NetNode& node,
                                     PortId port) const {
  if (!owns(node)) return nullptr;
  const auto& ports = ports_[node.id()];
  return port < ports.size() ? ports[port] : nullptr;
}

NetNode* Network::peer(const NetNode& node, PortId port) const {
  const HalfLink* half = findHalf(node, port);
  return half != nullptr ? half->to : nullptr;
}

void Network::setLinkUp(const NetNode& node, PortId port, bool up) {
  HalfLink* forward = findHalf(node, port);
  ES_ASSERT_MSG(forward != nullptr, "setLinkUp on unwired port");
  forward->up = up;
  HalfLink* reverse = findHalf(*forward->to, forward->toPort);
  ES_ASSERT(reverse != nullptr);
  reverse->up = up;
}

bool Network::linkUp(const NetNode& node, PortId port) const {
  const HalfLink* half = findHalf(node, port);
  return half != nullptr && half->up;
}

void Network::scheduleLinkFaults(const fault::FaultPlan& plan,
                                 const std::string& label, const NetNode& node,
                                 PortId port) {
  ES_ASSERT_MSG(findHalf(node, port) != nullptr,
                "scheduleLinkFaults on unwired port");
  for (const fault::FaultSpec* spec : plan.linkFaults(label)) {
    const NetNode* nodePtr = &node;
    sim_.scheduleAt(spec->at, [this, nodePtr, port] {
      ES_INFO("net", "injected link-down at %s port %u", nodePtr->name().c_str(),
              port);
      setLinkUp(*nodePtr, port, false);
    });
    if (spec->duration > SimTime::zero()) {
      sim_.scheduleAt(spec->at + spec->duration, [this, nodePtr, port] {
        ES_INFO("net", "injected link restored at %s port %u",
                nodePtr->name().c_str(), port);
        setLinkUp(*nodePtr, port, true);
      });
    }
  }
}

void Network::transmit(const NetNode& node, PortId port,
                       const Packet& packet) {
  HalfLink* half = findHalf(node, port);
  if (half == nullptr) {
    ++dropped_;
    ES_WARN("net", "drop: %s out of unwired port %u on %s",
            packet.summary().c_str(), port, node.name().c_str());
    return;
  }
  if (!half->up) {
    ++dropped_;
    ES_DEBUG("net", "drop: %s on down link at %s port %u",
             packet.summary().c_str(), node.name().c_str(), port);
    return;
  }
  const SimTime now = sim_.now();
  const SimTime txTime =
      SimTime::nanos(half->bandwidth.transmissionNanos(packet.wireSize()));
  const SimTime start = std::max(now, half->busyUntil);
  const SimTime depart = start + txTime;
  half->busyUntil = depart;
  const SimTime arrival = depart + half->latency;

  NetNode* to = half->to;
  const PortId toPort = half->toPort;
  sim_.scheduleAt(arrival, [this, to, toPort, packet] {
    ++delivered_;
    to->receive(packet, toPort);
  });
}

}  // namespace edgesim
