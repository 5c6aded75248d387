#include "util/config.hpp"

#include <charconv>
#include <cmath>

#include "util/strings.hpp"

namespace edgesim {

Result<Config> Config::parse(std::string_view text) {
  Config config;
  int lineNo = 0;
  for (const auto& rawLine : split(text, '\n')) {
    ++lineNo;
    std::string_view line = rawLine;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return makeError(Errc::kInvalidArgument,
                       strprintf("config line %d: missing '='", lineNo));
    }
    const auto key = trim(line.substr(0, eq));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return makeError(Errc::kInvalidArgument,
                       strprintf("config line %d: empty key", lineNo));
    }
    config.set(std::string(key), std::string(value));
  }
  return config;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::getString(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Config::getInt(const std::string& key) const {
  const auto text = getString(key);
  if (!text) return std::nullopt;
  std::int64_t value = 0;
  const auto* begin = text->data();
  const auto* end = begin + text->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> Config::getDouble(const std::string& key) const {
  const auto text = getString(key);
  if (!text) return std::nullopt;
  double value = 0;
  const auto* begin = text->data();
  const auto* end = begin + text->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<bool> Config::getBool(const std::string& key) const {
  const auto text = getString(key);
  if (!text) return std::nullopt;
  const auto lower = toLower(*text);
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") return true;
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") return false;
  return std::nullopt;
}

std::string Config::getStringOr(const std::string& key, std::string fallback) const {
  return getString(key).value_or(std::move(fallback));
}

std::int64_t Config::getIntOr(const std::string& key, std::int64_t fallback) const {
  return getInt(key).value_or(fallback);
}

double Config::getDoubleOr(const std::string& key, double fallback) const {
  return getDouble(key).value_or(fallback);
}

bool Config::getBoolOr(const std::string& key, bool fallback) const {
  return getBool(key).value_or(fallback);
}

std::optional<std::string> ConfigReader::take(const std::string& key) {
  known_.insert(key);
  return config_.getString(key);
}

void ConfigReader::fail(const std::string& key, const char* problem) {
  if (error_) return;
  error_ = makeError(Errc::kInvalidArgument,
                     strprintf("config key '%s': '%s' %s", key.c_str(),
                               config_.getString(key).value_or("").c_str(),
                               problem));
}

void ConfigReader::read(const std::string& key, std::string& out) {
  if (auto value = take(key)) out = std::move(*value);
}

void ConfigReader::read(const std::string& key, bool& out) {
  if (!take(key)) return;
  if (const auto value = config_.getBool(key)) {
    out = *value;
  } else {
    fail(key, "is not a boolean");
  }
}

void ConfigReader::read(const std::string& key, double& out) {
  if (!take(key)) return;
  const auto value = config_.getDouble(key);
  if (!value || !std::isfinite(*value)) {
    fail(key, "is not a number");
  } else if (*value < 0) {
    fail(key, "is negative");
  } else {
    out = *value;
  }
}

std::optional<std::int64_t> ConfigReader::readInt(const std::string& key) {
  if (!take(key)) return std::nullopt;
  const auto value = config_.getInt(key);
  if (!value) {
    fail(key, "is not an integer");
    return std::nullopt;
  }
  if (*value < 0) {
    fail(key, "is negative");
    return std::nullopt;
  }
  return value;
}

Status ConfigReader::finish() const {
  if (error_) return *error_;
  for (const auto& [key, value] : config_.entries()) {
    if (known_.count(key) == 0) {
      return makeError(Errc::kInvalidArgument,
                       "unknown config key '" + key + "'");
    }
  }
  return Status();
}

}  // namespace edgesim
