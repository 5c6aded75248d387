#include "util/strings.hpp"

#include <cstdarg>
#include <cstdio>
#include <cctype>
#include <charconv>

namespace edgesim {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> splitNonEmpty(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto& part : split(s, sep)) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string toLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool isInteger(std::string_view s) {
  s = trim(s);
  if (s.empty()) return false;
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool isNumber(std::string_view s) {
  s = trim(s);
  if (s.empty()) return false;
  double value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  // One pass into a stack buffer covers nearly every call; only longer
  // output pays a second, exactly sized pass.
  char stackBuffer[256];
  const int needed = std::vsnprintf(stackBuffer, sizeof stackBuffer, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<std::size_t>(needed) < sizeof stackBuffer) {
    out.assign(stackBuffer, static_cast<std::size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, copy);
  }
  va_end(copy);
  return out;
}

}  // namespace edgesim
