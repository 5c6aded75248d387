// Tests for the network substrate: addressing, links and timing, the
// lightweight TCP (handshake, refusal, retransmission), and HTTP exchanges.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

namespace edgesim {
namespace {

using namespace timeliterals;

// ---------------------------------------------------------------- addr ----

TEST(Addr, Ipv4ParseFormat) {
  const auto ip = Ipv4::parse("10.0.1.200");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->toString(), "10.0.1.200");
  EXPECT_EQ(Ipv4(10, 0, 1, 200), *ip);
  EXPECT_FALSE(Ipv4::parse("10.0.1").has_value());
  EXPECT_FALSE(Ipv4::parse("10.0.1.256").has_value());
  EXPECT_FALSE(Ipv4::parse("10.0.1.x").has_value());
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
}

TEST(Addr, EndpointParseFormat) {
  const auto ep = Endpoint::parse("192.168.0.1:8080");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->ip, Ipv4(192, 168, 0, 1));
  EXPECT_EQ(ep->port, 8080);
  EXPECT_EQ(ep->toString(), "192.168.0.1:8080");
  EXPECT_FALSE(Endpoint::parse("192.168.0.1").has_value());
  EXPECT_FALSE(Endpoint::parse("192.168.0.1:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("192.168.0.1:").has_value());
}

TEST(Addr, MacFormat) {
  EXPECT_EQ(Mac(0x0123456789abULL).toString(), "01:23:45:67:89:ab");
  EXPECT_EQ(Mac::broadcast().toString(), "ff:ff:ff:ff:ff:ff");
}

TEST(Addr, EndpointOrderingAndHash) {
  const Endpoint a(Ipv4(10, 0, 0, 1), 80);
  const Endpoint b(Ipv4(10, 0, 0, 1), 81);
  const Endpoint c(Ipv4(10, 0, 0, 2), 80);
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<Endpoint>{}(a), std::hash<Endpoint>{}(Endpoint(Ipv4(10, 0, 0, 1), 80)));
}

TEST(Addr, ClientAddressesStayDistinctPastTheSubnet) {
  EXPECT_EQ(clientAddress(0), Ipv4(10, 0, 2, 1));
  EXPECT_EQ(clientAddress(254), Ipv4(10, 0, 2, 255));
  EXPECT_EQ(clientAddress(255), Ipv4(10, 128, 0, 0));
  EXPECT_EQ(clientAddress(255 + 70'000), Ipv4(10, 129, 17, 112));
  EXPECT_EQ(clientAddress(254 + (1u << 23)), Ipv4(10, 255, 255, 255));
  const std::set<Ipv4> hosts{Ipv4(10, 0, 1, 1), Ipv4(10, 0, 3, 1),
                             Ipv4(198, 51, 100, 1)};
  std::set<Ipv4> seen;
  for (std::size_t i = 0; i < 100'000; ++i) {
    const Ipv4 ip = clientAddress(i);
    EXPECT_TRUE(seen.insert(ip).second) << "index " << i;
    EXPECT_EQ(hosts.count(ip), 0u) << "index " << i;
  }
}

/// The printf expressions addresses and packet summaries were formatted
/// with before they moved to std::to_chars; the output must not change.
std::string oldIpv4Text(Ipv4 ip) {
  const std::uint32_t v = ip.value;
  return strprintf("%u.%u.%u.%u", (v >> 24) & 0xff, (v >> 16) & 0xff,
                   (v >> 8) & 0xff, v & 0xff);
}

std::string oldEndpointText(Endpoint ep) {
  return strprintf("%s:%u", oldIpv4Text(ep.ip).c_str(), ep.port);
}

std::string oldSummaryText(const Packet& p) {
  std::string flags;
  if (p.hasFlag(tcpflags::kSyn)) flags += "S";
  if (p.hasFlag(tcpflags::kAck)) flags += "A";
  if (p.hasFlag(tcpflags::kFin)) flags += "F";
  if (p.hasFlag(tcpflags::kRst)) flags += "R";
  if (p.hasFlag(tcpflags::kPsh)) flags += "P";
  return strprintf("%s -> %s [%s] %llu B",
                   oldEndpointText(p.srcEndpoint()).c_str(),
                   oldEndpointText(p.dstEndpoint()).c_str(), flags.c_str(),
                   static_cast<unsigned long long>(p.payloadBytes.value));
}

TEST(Addr, FormattingMatchesThePrintfExpressionsAtTheExtremes) {
  const std::vector<Ipv4> ips{Ipv4(0, 0, 0, 0), Ipv4(255, 255, 255, 255),
                              Ipv4(10, 0, 2, 1), Ipv4(203, 0, 113, 10),
                              Ipv4(100, 9, 10, 99)};
  const std::vector<std::uint16_t> ports{0, 9, 80, 65535};
  for (const Ipv4 ip : ips) {
    EXPECT_EQ(ip.toString(), oldIpv4Text(ip));
    for (const std::uint16_t port : ports) {
      const Endpoint ep(ip, port);
      EXPECT_EQ(ep.toString(), oldEndpointText(ep));
    }
  }
  EXPECT_EQ(Endpoint(Ipv4(255, 255, 255, 255), 65535).toString().size(),
            Endpoint::kMaxText);
}

TEST(Packet, SummaryMatchesThePrintfExpressionForEveryFlagCombination) {
  const Endpoint low(Ipv4(0, 0, 0, 0), 0);
  const Endpoint high(Ipv4(255, 255, 255, 255), 65535);
  const std::vector<std::pair<Endpoint, Endpoint>> routes{
      {low, high}, {high, low}, {high, high}};
  const std::vector<std::uint64_t> sizes{0, 1, 1448, ~std::uint64_t{0}};
  for (unsigned flags = 0; flags < 32; ++flags) {
    for (const std::uint64_t bytes : sizes) {
      for (const auto& [src, dst] : routes) {
        Packet p;
        p.ipSrc = src.ip;
        p.tcpSrc = src.port;
        p.ipDst = dst.ip;
        p.tcpDst = dst.port;
        p.tcpFlags = static_cast<std::uint8_t>(flags);
        p.payloadBytes = Bytes{bytes};
        EXPECT_EQ(p.summary(), oldSummaryText(p)) << "flags " << flags;
        EXPECT_EQ(p.header().toString(), p.summary());
      }
    }
  }
}

// -------------------------------------------------------------- packet ----

TEST(Packet, BuildersSetFlags) {
  const Endpoint src(Ipv4(1, 1, 1, 1), 1234);
  const Endpoint dst(Ipv4(2, 2, 2, 2), 80);
  const auto syn = makeSyn(Mac(1), src, dst);
  EXPECT_TRUE(syn.hasFlag(tcpflags::kSyn));
  EXPECT_FALSE(syn.hasFlag(tcpflags::kAck));
  const auto synAck = makeSynAck(Mac(2), dst, src);
  EXPECT_TRUE(synAck.hasFlag(tcpflags::kSyn));
  EXPECT_TRUE(synAck.hasFlag(tcpflags::kAck));
  const auto rst = makeRst(Mac(1), src, dst);
  EXPECT_TRUE(rst.hasFlag(tcpflags::kRst));
  EXPECT_EQ(syn.srcEndpoint(), src);
  EXPECT_EQ(syn.dstEndpoint(), dst);
}

TEST(Packet, WireSizeIncludesHeaders) {
  const Endpoint src(Ipv4(1, 1, 1, 1), 1234);
  const Endpoint dst(Ipv4(2, 2, 2, 2), 80);
  const auto syn = makeSyn(Mac(1), src, dst);
  EXPECT_EQ(syn.wireSize(), Bytes{54});
  const auto data = makeData(Mac(1), src, dst, 1000_B, nullptr);
  EXPECT_EQ(data.wireSize(), Bytes{1054});
}

// ----------------------------------------------------- network fixture ----

class TwoHosts : public ::testing::Test {
 protected:
  TwoHosts()
      : sim_(7),
        net_(sim_),
        client_(net_, "client", Ipv4(10, 0, 0, 1), Mac(0x01)),
        server_(net_, "server", Ipv4(10, 0, 0, 2), Mac(0x02)) {
    net_.connect(client_, server_, 1_ms, 1_Gbps);
  }

  Simulation sim_;
  Network net_;
  Host client_;
  Host server_;
};

TEST_F(TwoHosts, HttpExchangeSucceeds) {
  server_.listen(80, [](const HttpRequest& req, HttpRespond respond) {
    EXPECT_EQ(req.path, "/index.html");
    HttpResponse resp;
    resp.status = 200;
    resp.body = "hello";
    respond(resp);
  });

  std::optional<Result<HttpExchange>> got;
  HttpRequest req;
  req.path = "/index.html";
  client_.httpRequest(Endpoint(server_.ip(), 80), req,
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value().response.status, 200);
  EXPECT_EQ(got->value().response.body, "hello");
  // Four one-way trips (SYN, SYN-ACK, DATA req, DATA resp) at 1 ms each,
  // plus serialisation.
  const auto total = got->value().timings.timeTotal();
  EXPECT_GE(total, 4_ms);
  EXPECT_LT(total, 5_ms);
  EXPECT_GE(got->value().timings.timeConnect(), 2_ms);
  EXPECT_LT(got->value().timings.timeConnect(), 3_ms);
  EXPECT_EQ(got->value().timings.synRetransmits, 0);
}

TEST_F(TwoHosts, ClosedPortRefusedQuickly) {
  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(Endpoint(server_.ip(), 81), HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kUnavailable);
  EXPECT_EQ(server_.refusedConnections(), 1u);
}

TEST_F(TwoHosts, LateListenerAnswersRetransmittedSyn) {
  // Port opens 1.5 s after the first SYN: initial SYN refused? No --
  // listener opens before the SYN arrives? Here the listener starts closed,
  // so the first SYN gets RST and the request fails fast.  Instead verify
  // retransmission by delaying the *link* response: use a server that only
  // listens after 1.5 s and a client that starts at t=0 with the SYN lost
  // to a closed port -> RST -> kUnavailable.  True waiting behaviour (hold
  // the packet) is the SDN controller's job, tested in the openflow suite.
  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(Endpoint(server_.ip(), 80), HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.schedule(1500_ms, [&] {
    server_.listen(80, [](const HttpRequest&, HttpRespond respond) {
      respond(HttpResponse{});
    });
  });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok());  // refused before the listener opened
}

TEST_F(TwoHosts, ResponseComputeDelayIsIncluded) {
  server_.listen(80, [this](const HttpRequest&, HttpRespond respond) {
    sim_.schedule(250_ms, [respond] {
      HttpResponse resp;
      respond(resp);
    });
  });
  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(Endpoint(server_.ip(), 80), HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_GE(got->value().timings.timeTotal(), 254_ms);
  EXPECT_LT(got->value().timings.timeTotal(), 256_ms);
}

TEST_F(TwoHosts, LargePayloadPaysSerialisation) {
  server_.listen(80, [](const HttpRequest& req, HttpRespond respond) {
    HttpResponse resp;
    resp.payload = req.payload;  // echo size
    respond(resp);
  });
  std::optional<Result<HttpExchange>> got;
  HttpRequest req;
  req.payload = 10_MiB;
  client_.httpRequest(Endpoint(server_.ip(), 80), req,
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value() && got->ok());
  // 10 MiB at 1 Gbps ~ 84 ms each way; two large segments + 4 ms RTTs.
  EXPECT_GE(got->value().timings.timeTotal(), 160_ms);
  EXPECT_LT(got->value().timings.timeTotal(), 200_ms);
}

TEST_F(TwoHosts, TcpProbeOpenAndClosed) {
  server_.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });
  std::optional<bool> open80;
  std::optional<bool> open81;
  client_.tcpProbe(Endpoint(server_.ip(), 80),
                   [&](bool open) { open80 = open; });
  client_.tcpProbe(Endpoint(server_.ip(), 81),
                   [&](bool open) { open81 = open; });
  sim_.run();
  ASSERT_TRUE(open80.has_value());
  ASSERT_TRUE(open81.has_value());
  EXPECT_TRUE(*open80);
  EXPECT_FALSE(*open81);
}

TEST_F(TwoHosts, ProbeTimesOutWhenPeerSilent) {
  // Probe an address that no host owns: the packet is delivered to the
  // server (only peer) which ignores the foreign destination IP.
  std::optional<bool> result;
  client_.tcpProbe(Endpoint(Ipv4(10, 9, 9, 9), 80),
                   [&](bool open) { result = open; }, 300_ms);
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(*result);
  EXPECT_EQ(sim_.now(), 300_ms);
}

TEST_F(TwoHosts, SequentialRequestsGetDistinctPorts) {
  int completed = 0;
  server_.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });
  for (int i = 0; i < 10; ++i) {
    client_.httpRequest(Endpoint(server_.ip(), 80), HttpRequest{},
                        [&](Result<HttpExchange> r) {
                          ASSERT_TRUE(r.ok());
                          ++completed;
                        });
  }
  sim_.run();
  EXPECT_EQ(completed, 10);
}

TEST_F(TwoHosts, CloseListenerRefusesNewConnections) {
  server_.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });
  server_.closeListener(80);
  std::optional<Result<HttpExchange>> got;
  client_.httpRequest(Endpoint(server_.ip(), 80), HttpRequest{},
                      [&](Result<HttpExchange> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok());
}

// A pass-through node used to delay/hold packets like a switch would.
class HoldingNode : public NetNode {
 public:
  HoldingNode(Network& network, std::string name)
      : NetNode(network, std::move(name)) {}

  void receive(const Packet& packet, PortId inPort) override {
    if (holding_) {
      held_.emplace_back(packet, inPort);
      return;
    }
    forward(packet, inPort);
  }

  void forward(const Packet& packet, PortId inPort) {
    // two-port pass-through
    network().transmit(*this, inPort == 0 ? 1 : 0, packet);
  }

  void releaseAll() {
    holding_ = false;
    for (const auto& [packet, port] : held_) forward(packet, port);
    held_.clear();
  }

  void hold() { holding_ = true; }
  std::size_t heldCount() const { return held_.size(); }

 private:
  bool holding_ = false;
  std::vector<std::pair<Packet, PortId>> held_;
};

TEST(TcpWaiting, SynRetransmitsWhileHeldThenSucceeds) {
  Simulation sim(11);
  Network net(sim);
  Host client(net, "client", Ipv4(10, 0, 0, 1), Mac(0x01));
  HoldingNode middle(net, "middle");
  Host server(net, "server", Ipv4(10, 0, 0, 2), Mac(0x02));
  net.connect(client, middle, 1_ms, 1_Gbps);   // client port0 <-> middle port0
  net.connect(middle, server, 1_ms, 1_Gbps);   // middle port1 <-> server port0

  server.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });

  middle.hold();  // emulate "request kept waiting" at the network
  sim.schedule(2500_ms, [&] { middle.releaseAll(); });

  std::optional<Result<HttpExchange>> got;
  client.httpRequest(Endpoint(server.ip(), 80), HttpRequest{},
                     [&](Result<HttpExchange> r) { got = std::move(r); });
  sim.run();

  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  // Held for 2.5 s: client retransmitted the SYN at ~1 s and ~3 s (backoff);
  // by release time at least one retransmit happened.
  EXPECT_GE(got->value().timings.synRetransmits, 1);
  EXPECT_GE(got->value().timings.timeTotal(), 2500_ms);
  EXPECT_LT(got->value().timings.timeTotal(), 2600_ms);
}

TEST(TcpWaiting, RetriesExhaustedYieldsTimeout) {
  Simulation sim(12);
  Network net(sim);
  Host client(net, "client", Ipv4(10, 0, 0, 1), Mac(0x01));
  HoldingNode middle(net, "middle");
  Host server(net, "server", Ipv4(10, 0, 0, 2), Mac(0x02));
  net.connect(client, middle, 1_ms, 1_Gbps);
  net.connect(middle, server, 1_ms, 1_Gbps);
  middle.hold();  // never released

  std::optional<Result<HttpExchange>> got;
  RequestOptions options;
  options.synRto = 100_ms;
  options.maxSynRetries = 3;
  client.httpRequest(Endpoint(server.ip(), 80), HttpRequest{},
                     [&](Result<HttpExchange> r) { got = std::move(r); },
                     options);
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kTimeout);
  // 100 + 200 + 400 + 800 ms of backoff before giving up.
  EXPECT_GE(sim.now(), 1500_ms);
}

TEST(NetworkTiming, SerialisationQueuesBackToBack) {
  Simulation sim(13);
  Network net(sim);
  Host a(net, "a", Ipv4(10, 0, 0, 1), Mac(0x01));
  Host b(net, "b", Ipv4(10, 0, 0, 2), Mac(0x02));
  // Slow link: 1 Mbps. A 1250-byte packet takes 10 ms to serialise.
  net.connect(a, b, SimTime::zero(), 1_Mbps);

  // Send two equal data packets back to back from a's port 0.
  const Endpoint src(a.ip(), 1000);
  const Endpoint dst(b.ip(), 80);
  const auto p = makeData(Mac(1), src, dst, Bytes{1250 - 54}, nullptr);
  sim.schedule(SimTime::zero(), [&] {
    net.transmit(a, 0, p);
    net.transmit(a, 0, p);
  });
  sim.run();
  // Link busy accounting: each 1250-byte packet serialises for 10 ms, so
  // the second data packet arrives at t=20 ms.  (b answers each stray
  // segment with a small RST, hence 4 total deliveries and a sub-ms tail.)
  EXPECT_EQ(net.deliveredPackets(), 4u);
  EXPECT_GE(sim.now(), 20_ms);
  EXPECT_LT(sim.now(), 21_ms);
}

TEST(NetworkTopology, PeerLookup) {
  Simulation sim;
  Network net(sim);
  Host a(net, "a", Ipv4(1, 0, 0, 1), Mac(1));
  Host b(net, "b", Ipv4(1, 0, 0, 2), Mac(2));
  const auto ports = net.connect(a, b, 1_ms, 1_Gbps);
  EXPECT_EQ(net.peer(a, ports.portA), &b);
  EXPECT_EQ(net.peer(b, ports.portB), &a);
  EXPECT_EQ(net.peer(a, 99), nullptr);
}

TEST(NetworkFailure, DownLinkDropsAndTcpTimesOut) {
  Simulation sim(14);
  Network net(sim);
  Host a(net, "a", Ipv4(10, 0, 0, 1), Mac(1));
  Host b(net, "b", Ipv4(10, 0, 0, 2), Mac(2));
  const auto ports = net.connect(a, b, 1_ms, 1_Gbps);
  b.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });

  net.setLinkUp(a, ports.portA, false);
  EXPECT_FALSE(net.linkUp(a, ports.portA));
  EXPECT_FALSE(net.linkUp(b, ports.portB));  // both directions down

  std::optional<Result<HttpExchange>> got;
  RequestOptions options;
  options.synRto = 100_ms;
  options.maxSynRetries = 2;
  a.httpRequest(Endpoint(b.ip(), 80), HttpRequest{},
                [&](Result<HttpExchange> r) { got = std::move(r); }, options);
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->error().code, Errc::kTimeout);
  EXPECT_GE(net.droppedPackets(), 3u);  // initial SYN + 2 retransmits
}

TEST(NetworkFailure, LinkRecoveryLetsRetransmitSucceed) {
  Simulation sim(15);
  Network net(sim);
  Host a(net, "a", Ipv4(10, 0, 0, 1), Mac(1));
  Host b(net, "b", Ipv4(10, 0, 0, 2), Mac(2));
  const auto ports = net.connect(a, b, 1_ms, 1_Gbps);
  b.listen(80, [](const HttpRequest&, HttpRespond respond) {
    respond(HttpResponse{});
  });

  net.setLinkUp(a, ports.portA, false);
  sim.schedule(1500_ms, [&] { net.setLinkUp(a, ports.portA, true); });

  std::optional<Result<HttpExchange>> got;
  a.httpRequest(Endpoint(b.ip(), 80), HttpRequest{},
                [&](Result<HttpExchange> r) { got = std::move(r); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->error().toString();
  // The SYN retransmitted at 1 s (dropped) and 3 s (delivered).
  EXPECT_GE(got->value().timings.synRetransmits, 2);
  EXPECT_GE(got->value().timings.timeTotal(), 3_s);
}

TEST(NetworkTopology, UnwiredPortDrops) {
  Simulation sim;
  Network net(sim);
  Host a(net, "a", Ipv4(1, 0, 0, 1), Mac(1));
  const auto p = makeSyn(Mac(1), Endpoint(a.ip(), 1), Endpoint(Ipv4(9, 9, 9, 9), 80));
  net.transmit(a, 0, p);
  sim.run();
  EXPECT_EQ(net.droppedPackets(), 1u);
  EXPECT_EQ(net.deliveredPackets(), 0u);
}


/// A node that counts what reaches it, for topology tests.
class CountingNode final : public NetNode {
 public:
  using NetNode::NetNode;
  void receive(const Packet&, PortId) override { ++received; }
  int received = 0;
};

TEST(NetworkTopology, OutOfRangePortDropsAndHasNoPeer) {
  Simulation sim;
  Network net(sim);
  CountingNode a(net, "a");
  CountingNode b(net, "b");
  net.connect(a, b, 1_ms, 1_Gbps);
  const auto p = makeSyn(Mac(1), Endpoint(Ipv4(1, 0, 0, 1), 1),
                         Endpoint(Ipv4(1, 0, 0, 2), 80));
  for (const PortId port : {PortId{1}, PortId{1000}, kInvalidPort}) {
    EXPECT_EQ(net.peer(a, port), nullptr);
    EXPECT_FALSE(net.linkUp(a, port));
    net.transmit(a, port, p);
  }
  sim.run();
  EXPECT_EQ(net.droppedPackets(), 3u);
  EXPECT_EQ(net.deliveredPackets(), 0u);
  EXPECT_EQ(b.received, 0);
}

TEST(NetworkTopology, UnwiredNodeHasNoPeerOrLink) {
  Simulation sim;
  Network net(sim);
  CountingNode a(net, "a");
  CountingNode b(net, "b");
  CountingNode lonely(net, "lonely");  // registered, never wired
  net.connect(a, b, 1_ms, 1_Gbps);
  EXPECT_EQ(net.peer(lonely, 0), nullptr);
  EXPECT_FALSE(net.linkUp(lonely, 0));
  net.transmit(lonely, 0, makeSyn(Mac(1), Endpoint(Ipv4(1, 0, 0, 3), 1),
                                  Endpoint(Ipv4(1, 0, 0, 2), 80)));
  sim.run();
  EXPECT_EQ(net.droppedPackets(), 1u);
  EXPECT_EQ(b.received, 0);
}

TEST(NetworkTopology, NodeOfAnotherNetworkIsUnknown) {
  // Same node id and port number as a wired node here, but registered with
  // a different Network: it must not alias this network's link.
  Simulation sim;
  Network net(sim);
  Network other(sim);
  CountingNode a(net, "a");
  CountingNode b(net, "b");
  net.connect(a, b, 1_ms, 1_Gbps);
  CountingNode stranger(other, "stranger");
  ASSERT_EQ(stranger.id(), a.id());
  EXPECT_EQ(net.peer(stranger, 0), nullptr);
  EXPECT_FALSE(net.linkUp(stranger, 0));
  net.transmit(stranger, 0, makeSyn(Mac(1), Endpoint(Ipv4(1, 0, 0, 9), 1),
                                    Endpoint(Ipv4(1, 0, 0, 2), 80)));
  sim.run();
  EXPECT_EQ(net.droppedPackets(), 1u);
  EXPECT_EQ(b.received, 0);
}

TEST(NetworkTopology, SetLinkUpFlipsBothDirectionsOnLargeTopology) {
  // More than 256 links through one hub: every leaf's link must map to its
  // own hub port in both directions.
  constexpr int kLeaves = 300;
  Simulation sim;
  Network net(sim);
  CountingNode hub(net, "hub");
  std::vector<std::unique_ptr<CountingNode>> leaves;
  std::vector<Network::LinkPorts> links;
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(
        std::make_unique<CountingNode>(net, "leaf-" + std::to_string(i)));
    links.push_back(net.connect(*leaves.back(), hub, 1_ms, 1_Gbps));
  }
  for (int i = 0; i < kLeaves; ++i) {
    EXPECT_EQ(net.peer(hub, links[i].portB), leaves[i].get());
    EXPECT_EQ(net.peer(*leaves[i], links[i].portA), &hub);
  }
  const int victim = 277;
  net.setLinkUp(hub, links[victim].portB, false);
  for (int i = 0; i < kLeaves; ++i) {
    const bool up = i != victim;
    EXPECT_EQ(net.linkUp(hub, links[i].portB), up) << i;
    EXPECT_EQ(net.linkUp(*leaves[i], links[i].portA), up) << i;
  }
  net.setLinkUp(*leaves[victim], links[victim].portA, true);
  EXPECT_TRUE(net.linkUp(hub, links[victim].portB));
  EXPECT_TRUE(net.linkUp(*leaves[victim], links[victim].portA));

  const auto p = makeSyn(Mac(1), Endpoint(Ipv4(1, 0, 0, 1), 1),
                         Endpoint(Ipv4(1, 0, 0, 2), 80));
  net.transmit(hub, links[victim].portB, p);
  sim.run();
  EXPECT_EQ(leaves[victim]->received, 1);
}

}  // namespace
}  // namespace edgesim
