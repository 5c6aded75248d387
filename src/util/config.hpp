// Flat key/value configuration with typed getters.
//
// The SDN controller of the paper loads its scheduler class and timeouts
// from a configuration file; we mirror that with a simple "key = value"
// format (comments with '#') plus programmatic construction for tests.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/result.hpp"

namespace edgesim {

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  static Result<Config> parse(std::string_view text);

  void set(std::string key, std::string value);

  bool contains(const std::string& key) const;

  std::optional<std::string> getString(const std::string& key) const;
  std::optional<std::int64_t> getInt(const std::string& key) const;
  std::optional<double> getDouble(const std::string& key) const;
  std::optional<bool> getBool(const std::string& key) const;

  std::string getStringOr(const std::string& key, std::string fallback) const;
  std::int64_t getIntOr(const std::string& key, std::int64_t fallback) const;
  double getDoubleOr(const std::string& key, double fallback) const;
  bool getBoolOr(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& entries() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Strict typed reads of a Config for option structs: each read() names a
/// known key and leaves the target untouched when the key is absent.
/// finish() reports the first value that did not parse or was negative,
/// else the first key no read() named.  Numbers must be >= 0.
class ConfigReader {
 public:
  explicit ConfigReader(const Config& config) : config_(config) {}

  void read(const std::string& key, std::string& out);
  void read(const std::string& key, bool& out);
  void read(const std::string& key, double& out);
  template <typename Int>
    requires std::is_integral_v<Int>
  void read(const std::string& key, Int& out) {
    const std::optional<std::int64_t> value = readInt(key);
    if (!value) return;
    if (static_cast<std::uint64_t>(*value) >
        static_cast<std::uint64_t>(std::numeric_limits<Int>::max())) {
      fail(key, "is out of range");
      return;
    }
    out = static_cast<Int>(*value);
  }
  /// A duration in milliseconds, into any type with a static millis()
  /// that stores nanoseconds in an int64 (SimTime).
  template <typename Duration>
  void readMillis(const std::string& key, Duration& out) {
    const std::optional<std::int64_t> ms = readInt(key);
    if (!ms) return;
    if (*ms > std::numeric_limits<std::int64_t>::max() / 1000000) {
      fail(key, "is out of range");
      return;
    }
    out = Duration::millis(*ms);
  }

  Status finish() const;

 private:
  std::optional<std::string> take(const std::string& key);
  std::optional<std::int64_t> readInt(const std::string& key);
  void fail(const std::string& key, const char* problem);

  const Config& config_;
  std::set<std::string> known_;
  std::optional<Error> error_;
};

}  // namespace edgesim
