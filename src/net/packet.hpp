// Packet model: Ethernet / IPv4 / TCP headers plus application payload
// metadata.  Packets are value types; switches copy-and-rewrite them, which
// mirrors OpenFlow set-field semantics exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/addr.hpp"
#include "net/http.hpp"
#include "util/units.hpp"

namespace edgesim {

enum class EtherType : std::uint16_t { kIpv4 = 0x0800 };
enum class IpProto : std::uint8_t { kTcp = 6 };

/// TCP control flags (bitmask).
namespace tcpflags {
inline constexpr std::uint8_t kSyn = 0x01;
inline constexpr std::uint8_t kAck = 0x02;
inline constexpr std::uint8_t kFin = 0x04;
inline constexpr std::uint8_t kRst = 0x08;
inline constexpr std::uint8_t kPsh = 0x10;
}  // namespace tcpflags

/// Application payload attached to a data segment.  The byte count is
/// authoritative for transfer timing; the message objects carry semantics.
struct AppPayload {
  enum class Kind { kNone, kHttpRequest, kHttpResponse };
  Kind kind = Kind::kNone;
  HttpRequest request;
  HttpResponse response;
};

/// The addressing, flags and payload size of one packet: what
/// Packet::summary() prints.  A plain value, so a trace argument can hold
/// it and format it only when the trace is exported.
struct PacketHeader {
  Endpoint src;
  Endpoint dst;
  std::uint8_t flags = 0;
  std::uint64_t bytes = 0;

  /// "10.0.2.1:40000 -> 203.0.113.10:80 [SA] 0 B"; flags print in the
  /// order S A F R P.
  std::string toString() const;
};

struct Packet {
  // L2
  Mac ethSrc;
  Mac ethDst;
  EtherType etherType = EtherType::kIpv4;
  // L3
  Ipv4 ipSrc;
  Ipv4 ipDst;
  IpProto ipProto = IpProto::kTcp;
  std::uint8_t ttl = 64;
  // L4
  std::uint16_t tcpSrc = 0;
  std::uint16_t tcpDst = 0;
  std::uint8_t tcpFlags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  // Payload
  Bytes payloadBytes;
  std::shared_ptr<const AppPayload> app;  // shared: switches copy packets

  Endpoint srcEndpoint() const { return Endpoint(ipSrc, tcpSrc); }
  Endpoint dstEndpoint() const { return Endpoint(ipDst, tcpDst); }

  bool hasFlag(std::uint8_t flag) const { return (tcpFlags & flag) != 0; }

  /// Total wire size used for serialisation-delay modelling
  /// (Eth 14 + IP 20 + TCP 20 + payload).
  Bytes wireSize() const { return Bytes{54} + payloadBytes; }

  PacketHeader header() const {
    return {srcEndpoint(), dstEndpoint(), tcpFlags, payloadBytes.value};
  }
  std::string summary() const { return header().toString(); }
};

/// Builders for the packet shapes the TCP layer emits.
Packet makeSyn(Mac srcMac, Endpoint src, Endpoint dst);
Packet makeSynAck(Mac srcMac, Endpoint src, Endpoint dst);
Packet makeAck(Mac srcMac, Endpoint src, Endpoint dst);
Packet makeRst(Mac srcMac, Endpoint src, Endpoint dst);
Packet makeFin(Mac srcMac, Endpoint src, Endpoint dst);
Packet makeData(Mac srcMac, Endpoint src, Endpoint dst, Bytes payload,
                std::shared_ptr<const AppPayload> app);

}  // namespace edgesim
