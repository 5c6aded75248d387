#include "probes.hpp"

#include <memory>
#include <string>

#include "net/network.hpp"
#include "util/stats.hpp"

namespace pathbench {

using namespace edgesim;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kRounds = 7;

double elapsedNs(Clock::time_point since) {
  return std::chrono::duration<double, std::nano>(Clock::now() - since)
      .count();
}

/// A network endpoint that drops what reaches it.
class Sink final : public NetNode {
 public:
  using NetNode::NetNode;
  void receive(const Packet&, PortId) override {}
};

/// A packet carrying exactly the header fields `match` names.
Packet packetFor(const openflow::FlowMatch& match) {
  Packet packet;
  if (match.ipSrc) packet.ipSrc = *match.ipSrc;
  if (match.ipDst) packet.ipDst = *match.ipDst;
  if (match.ipProto) packet.ipProto = *match.ipProto;
  if (match.tcpSrc) packet.tcpSrc = *match.tcpSrc;
  if (match.tcpDst) packet.tcpDst = *match.tcpDst;
  return packet;
}

}  // namespace

void TimedController::onPacketIn(openflow::OpenFlowSwitch& sw,
                                 const openflow::PacketIn& event) {
  const auto start = Clock::now();
  inner_.onPacketIn(sw, event);
  busy_ += Clock::now() - start;
}

void TimedController::onFlowRemoved(openflow::OpenFlowSwitch& sw,
                                    const openflow::FlowRemoved& event) {
  const auto start = Clock::now();
  inner_.onFlowRemoved(sw, event);
  busy_ += Clock::now() - start;
}

double probeEventNs(std::size_t heapDepth) {
  Simulation sim(1);
  const SimTime far = SimTime::seconds(1e6);
  for (std::size_t i = 0; i < heapDepth; ++i) {
    sim.schedule(far + SimTime::nanos(static_cast<std::int64_t>(i)), [] {});
  }
  constexpr int kOps = 100000;
  Samples perEvent;
  for (int round = 0; round < kRounds; ++round) {
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      sim.schedule(SimTime::nanos(1), [] {});
      sim.step();
    }
    perEvent.add(elapsedNs(start) / kOps);
  }
  return perEvent.median();
}

double probeTransmitNs(std::size_t links) {
  Simulation sim(1);
  Network net(sim);
  Sink hub(net, "hub");
  std::vector<std::unique_ptr<Sink>> leaves;
  for (std::size_t i = 0; i < links; ++i) {
    leaves.push_back(std::make_unique<Sink>(net, "leaf-" + std::to_string(i)));
    net.connect(*leaves.back(), hub, SimTime::micros(300),
                BitRate{1000u * 1000 * 1000});
  }
  const Packet packet = makeSyn(Mac(0x02), Endpoint(Ipv4(10, 0, 2, 1), 40000),
                                Endpoint(Ipv4(203, 0, 113, 1), 80));
  // Every leaf sends on its only port and the hub on each of its ports, so
  // the average covers every half-link position.
  const std::size_t perRound = 2 * links;
  constexpr int kBatches = 20;
  Samples perTransmit;
  for (int round = 0; round < kRounds; ++round) {
    double ns = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      const auto start = Clock::now();
      for (std::size_t i = 0; i < links; ++i) {
        net.transmit(*leaves[i], 0, packet);
        net.transmit(hub, static_cast<PortId>(i), packet);
      }
      ns += elapsedNs(start);
      sim.run();  // deliver, so the heap stays shallow between batches
    }
    perTransmit.add(ns / static_cast<double>(perRound * kBatches));
  }
  return perTransmit.median();
}

FlowTableProbe probeFlowTable(const std::vector<openflow::FlowEntry>& entries,
                              SimTime at, SimTime sweepPeriod) {
  FlowTableProbe probe;
  // upsert() stamps created/lastUsed with its `now`; passing each entry's
  // own lastUsed keeps the snapshot's idle ages, so expire() below removes
  // what the switch's next sweep would.
  openflow::FlowTable base;
  for (const auto& entry : entries) base.upsert(entry, entry.stats.lastUsed);

  // One packet per redirect entry, in table order: the workload's own
  // headers, the last one matching the deepest entry.
  std::vector<Packet> packets;
  std::vector<const openflow::FlowEntry*> redirects;
  for (const auto& entry : base.entries()) {
    if (entry.priority < core::kRedirectPriority) continue;
    packets.push_back(packetFor(entry.match));
    redirects.push_back(&entry);
  }
  if (packets.empty()) {
    // No redirect installed at snapshot time: probe a full-table miss.
    packets.push_back(makeSyn(Mac(0x02), Endpoint(Ipv4(10, 9, 9, 9), 40000),
                              Endpoint(Ipv4(192, 0, 2, 1), 80)));
  }

  constexpr int kLookups = 20000;
  // lookup() bumps the matched entry's stats, so the loops stay live.
  Samples worst;
  Samples mean;
  for (int round = 0; round < kRounds; ++round) {
    openflow::FlowTable table = base;
    auto start = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      table.lookup(packets.back(), 0, at);
    }
    worst.add(elapsedNs(start) / kLookups);
    start = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      table.lookup(packets[static_cast<std::size_t>(i) % packets.size()], 0,
                   at);
    }
    mean.add(elapsedNs(start) / kLookups);
  }
  probe.lookupWorstNs = worst.median();
  probe.lookupMeanNs = mean.median();

  // Re-install up to 64 redirect entries spread over the table: take them
  // out (untimed), then time putting them back -- the reinstall path.
  std::vector<openflow::FlowEntry> reinstall;
  const std::size_t stride = std::max<std::size_t>(1, redirects.size() / 64);
  for (std::size_t i = 0; i < redirects.size(); i += stride) {
    reinstall.push_back(*redirects[i]);
  }
  Samples upsert;
  for (int round = 0; round < kRounds && !reinstall.empty(); ++round) {
    openflow::FlowTable table = base;
    for (const auto& entry : reinstall) table.remove(entry.match, entry.cookie);
    const auto start = Clock::now();
    for (const auto& entry : reinstall) table.upsert(entry, at);
    upsert.add(elapsedNs(start) / static_cast<double>(reinstall.size()));
  }
  probe.upsertNs = upsert.empty() ? 0.0 : upsert.median();

  Samples sweep;
  for (int round = 0; round < kRounds; ++round) {
    openflow::FlowTable table = base;
    const auto start = Clock::now();
    table.expire(at + sweepPeriod);
    sweep.add(elapsedNs(start) / 1e3);
  }
  probe.expireSweepUs = sweep.median();
  return probe;
}

}  // namespace pathbench
