#include "net/addr.hpp"

#include <charconv>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace edgesim {

std::optional<Ipv4> Ipv4::parse(std::string_view text) {
  const auto parts = split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto& part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    unsigned octet = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), octet);
    if (ec != std::errc{} || ptr != part.data() + part.size() || octet > 255) {
      return std::nullopt;
    }
    value = (value << 8) | octet;
  }
  return Ipv4(value);
}

Ipv4 clientAddress(std::size_t index) {
  constexpr std::size_t kSubnetClients = 255;  // 10.0.2.1 .. 10.0.2.255
  constexpr std::size_t kOverflowClients = std::size_t{1} << 23;  // a /9
  if (index < kSubnetClients) {
    return Ipv4(10, 0, 2, static_cast<std::uint8_t>(index + 1));
  }
  const std::size_t overflow = index - kSubnetClients;
  ES_ASSERT_MSG(overflow < kOverflowClients, "client addresses exhausted");
  return Ipv4(Ipv4(10, 128, 0, 0).value +
              static_cast<std::uint32_t>(overflow));
}

char* Ipv4::format(char* out) const {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out = std::to_chars(out, out + 3, (value >> shift) & 0xff).ptr;
    if (shift != 0) *out++ = '.';
  }
  return out;
}

std::string Ipv4::toString() const {
  char text[kMaxText];
  return std::string(text, format(text));
}

std::string Mac::toString() const {
  return strprintf("%02x:%02x:%02x:%02x:%02x:%02x",
                   static_cast<unsigned>((value >> 40) & 0xff),
                   static_cast<unsigned>((value >> 32) & 0xff),
                   static_cast<unsigned>((value >> 24) & 0xff),
                   static_cast<unsigned>((value >> 16) & 0xff),
                   static_cast<unsigned>((value >> 8) & 0xff),
                   static_cast<unsigned>(value & 0xff));
}

std::optional<Endpoint> Endpoint::parse(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto ip = Ipv4::parse(text.substr(0, colon));
  if (!ip) return std::nullopt;
  const auto portText = text.substr(colon + 1);
  unsigned port = 0;
  const auto [ptr, ec] = std::from_chars(
      portText.data(), portText.data() + portText.size(), port);
  if (ec != std::errc{} || ptr != portText.data() + portText.size() ||
      port > 65535 || portText.empty()) {
    return std::nullopt;
  }
  return Endpoint(*ip, static_cast<std::uint16_t>(port));
}

char* Endpoint::format(char* out) const {
  out = ip.format(out);
  *out++ = ':';
  return std::to_chars(out, out + 5, port).ptr;
}

std::string Endpoint::toString() const {
  char text[kMaxText];
  return std::string(text, format(text));
}

std::string FourTuple::toString() const {
  return local.toString() + "->" + remote.toString();
}

}  // namespace edgesim
