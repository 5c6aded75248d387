// Network addressing primitives: IPv4, MAC, and endpoint (IP:port).
//
// Registered edge services in the paper are identified by their unique
// IP address + port combination; `Endpoint` is that key throughout the
// controller.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace edgesim {

struct Ipv4 {
  std::uint32_t value = 0;  // host byte order

  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t v) : value(v) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | d) {}

  static std::optional<Ipv4> parse(std::string_view text);
  std::string toString() const;
  /// Longest toString() text: "255.255.255.255".
  static constexpr std::size_t kMaxText = 15;
  /// Write toString()'s text (no NUL) at `out`, which has room for
  /// kMaxText chars; returns one past the last char written.
  char* format(char* out) const;

  constexpr auto operator<=>(const Ipv4&) const = default;
  constexpr bool isZero() const { return value == 0; }
};

struct Mac {
  std::uint64_t value = 0;  // lower 48 bits

  constexpr Mac() = default;
  constexpr explicit Mac(std::uint64_t v) : value(v & 0xffffffffffffULL) {}

  static constexpr Mac broadcast() { return Mac(0xffffffffffffULL); }
  std::string toString() const;

  constexpr auto operator<=>(const Mac&) const = default;
};

struct Endpoint {
  Ipv4 ip;
  std::uint16_t port = 0;

  constexpr Endpoint() = default;
  constexpr Endpoint(Ipv4 i, std::uint16_t p) : ip(i), port(p) {}

  /// Parse "10.0.0.5:80".
  static std::optional<Endpoint> parse(std::string_view text);
  std::string toString() const;
  /// Longest toString() text: "255.255.255.255:65535".
  static constexpr std::size_t kMaxText = Ipv4::kMaxText + 6;
  /// As Ipv4::format, with room for kMaxText chars.
  char* format(char* out) const;

  constexpr auto operator<=>(const Endpoint&) const = default;
};

/// Address of client `index` (0-based), the one client numbering shared by
/// the testbed, the workloads and the mobility models.  Indices 0..254 map
/// to 10.0.2.1..10.0.2.255 (the paper's client subnet); higher ones count
/// on through 10.128.0.0/9, a block no testbed host (10.0.1.1 EGS,
/// 10.0.3.1 far edge, 198.51.100.1 cloud) and no service address uses.
/// Asserts when both ranges are exhausted.
Ipv4 clientAddress(std::size_t index);

/// TCP connection 4-tuple as seen from one side.
struct FourTuple {
  Endpoint local;
  Endpoint remote;

  constexpr auto operator<=>(const FourTuple&) const = default;
  std::string toString() const;
};

}  // namespace edgesim

template <>
struct std::hash<edgesim::Ipv4> {
  std::size_t operator()(const edgesim::Ipv4& ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.value);
  }
};

template <>
struct std::hash<edgesim::Endpoint> {
  std::size_t operator()(const edgesim::Endpoint& ep) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{ep.ip.value} << 16) | ep.port);
  }
};

template <>
struct std::hash<edgesim::FourTuple> {
  std::size_t operator()(const edgesim::FourTuple& t) const noexcept {
    const auto h1 = std::hash<edgesim::Endpoint>{}(t.local);
    const auto h2 = std::hash<edgesim::Endpoint>{}(t.remote);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
