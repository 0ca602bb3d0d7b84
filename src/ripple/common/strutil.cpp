#include "ripple/common/strutil.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <system_error>

namespace ripple::strutil {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(text) + std::string(width - text.size(), ' ');
}

std::string format_duration(double seconds) {
  const double magnitude = std::fabs(seconds);
  if (magnitude < 1e-6) return format_fixed(seconds * 1e9, 1) + " ns";
  if (magnitude < 1e-3) return format_fixed(seconds * 1e6, 1) + " us";
  if (magnitude < 1.0) return format_fixed(seconds * 1e3, 2) + " ms";
  if (magnitude < 120.0) return format_fixed(seconds, 2) + " s";
  if (magnitude < 7200.0) return format_fixed(seconds / 60.0, 1) + " min";
  return format_fixed(seconds / 3600.0, 2) + " h";
}

std::string format_bytes(double bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return format_fixed(bytes, unit == 0 ? 0 : 1) + " " + kUnits[unit];
}

std::string format_fixed(double value, int precision) {
  char buffer[64];
  const auto fitted = std::to_chars(std::begin(buffer), std::end(buffer), value,
                                    std::chars_format::fixed, precision);
  if (fitted.ec == std::errc{}) return std::string(buffer, fitted.ptr);
  // Only huge magnitudes get here. DBL_MAX has 309 integer digits; add
  // the sign, the point and the fraction (a negative precision means 6).
  std::string out(std::numeric_limits<double>::max_exponent10 + 3 +
                      static_cast<std::size_t>(std::max(precision, 6)),
                  '\0');
  const auto wide = std::to_chars(out.data(), out.data() + out.size(), value,
                                  std::chars_format::fixed, precision);
  out.resize(static_cast<std::size_t>(wide.ptr - out.data()));
  return out;
}

std::string zero_pad(std::uint64_t value, int width) {
  char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const char* end =
      std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  const auto length = static_cast<int>(end - digits);
  std::string out(static_cast<std::size_t>(std::max(width - length, 0)), '0');
  out.append(digits, static_cast<std::size_t>(length));
  return out;
}

}  // namespace ripple::strutil
