#pragma once

/// \file strutil.hpp
/// Small string helpers shared across Ripple (no external dependencies).

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ripple::strutil {

/// Concatenates all arguments through an ostringstream. The building block
/// for log and error messages (GCC 12 lacks std::format).
template <typename... Args>
[[nodiscard]] std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Lowercases ASCII characters only.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Left-pads `text` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
[[nodiscard]] std::string pad_right(std::string_view text, std::size_t width);

/// Formats a duration in seconds with an adaptive unit (ns/us/ms/s/min/h).
[[nodiscard]] std::string format_duration(double seconds);

/// Formats a byte count with binary units (B/KiB/MiB/GiB/TiB).
[[nodiscard]] std::string format_bytes(double bytes);

/// Fixed-precision decimal formatting (std::to_string has fixed 6 digits),
/// byte-identical to streaming the value with std::fixed and
/// std::setprecision, but without a stream.
[[nodiscard]] std::string format_fixed(double value, int precision);

/// Zero-padded decimal rendering of `value` at `width` digits; a wider
/// value keeps all its digits.
[[nodiscard]] std::string zero_pad(std::uint64_t value, int width);

}  // namespace ripple::strutil
