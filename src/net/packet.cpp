#include "net/packet.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

namespace edgesim {

const char* httpMethodName(HttpMethod method) {
  switch (method) {
    case HttpMethod::kGet: return "GET";
    case HttpMethod::kPost: return "POST";
  }
  return "?";
}

namespace {

Packet makeBase(Mac srcMac, Endpoint src, Endpoint dst, std::uint8_t flags) {
  Packet p;
  p.ethSrc = srcMac;
  p.ethDst = Mac::broadcast();  // resolved by switching fabric
  p.ipSrc = src.ip;
  p.ipDst = dst.ip;
  p.tcpSrc = src.port;
  p.tcpDst = dst.port;
  p.tcpFlags = flags;
  return p;
}

}  // namespace

std::string PacketHeader::toString() const {
  // src " -> " dst " [" flags "] " bytes " B": at most 77 chars.
  char text[96];
  char* out = src.format(text);
  out = std::copy_n(" -> ", 4, out);
  out = dst.format(out);
  out = std::copy_n(" [", 2, out);
  constexpr std::pair<std::uint8_t, char> kLetters[] = {
      {tcpflags::kSyn, 'S'}, {tcpflags::kAck, 'A'}, {tcpflags::kFin, 'F'},
      {tcpflags::kRst, 'R'}, {tcpflags::kPsh, 'P'}};
  for (const auto& [flag, letter] : kLetters) {
    if ((flags & flag) != 0) *out++ = letter;
  }
  out = std::copy_n("] ", 2, out);
  out = std::to_chars(out, out + 20, bytes).ptr;
  out = std::copy_n(" B", 2, out);
  return std::string(text, out);
}

Packet makeSyn(Mac srcMac, Endpoint src, Endpoint dst) {
  return makeBase(srcMac, src, dst, tcpflags::kSyn);
}

Packet makeSynAck(Mac srcMac, Endpoint src, Endpoint dst) {
  return makeBase(srcMac, src, dst, tcpflags::kSyn | tcpflags::kAck);
}

Packet makeAck(Mac srcMac, Endpoint src, Endpoint dst) {
  return makeBase(srcMac, src, dst, tcpflags::kAck);
}

Packet makeRst(Mac srcMac, Endpoint src, Endpoint dst) {
  return makeBase(srcMac, src, dst, tcpflags::kRst);
}

Packet makeFin(Mac srcMac, Endpoint src, Endpoint dst) {
  return makeBase(srcMac, src, dst, tcpflags::kFin | tcpflags::kAck);
}

Packet makeData(Mac srcMac, Endpoint src, Endpoint dst, Bytes payload,
                std::shared_ptr<const AppPayload> app) {
  Packet p = makeBase(srcMac, src, dst, tcpflags::kPsh | tcpflags::kAck);
  p.payloadBytes = payload;
  p.app = std::move(app);
  return p;
}

}  // namespace edgesim
