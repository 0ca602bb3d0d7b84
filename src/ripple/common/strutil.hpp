#pragma once

/// \file strutil.hpp
/// Small string helpers shared across Ripple (no external dependencies).

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ripple::strutil {

namespace detail {

template <typename T, typename... Us>
inline constexpr bool is_one_of_v = (std::is_same_v<T, Us> || ...);

/// Appends `part` to `out` exactly as a default-formatted std::ostream
/// would print it: text as is, `char` as a character, `bool` as 0/1,
/// integers in decimal, `float`/`double` as printf's %g at precision 6.
/// Any other type is streamed on its own.
template <typename T>
void append_part(std::string& out, const T& part) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(part);
  } else if constexpr (std::is_same_v<T, char>) {
    out += part;
  } else if constexpr (std::is_same_v<T, bool>) {
    out += part ? '1' : '0';
  } else if constexpr (is_one_of_v<T, short, unsigned short, int, unsigned,
                                   long, unsigned long, long long,
                                   unsigned long long>) {
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, part).ptr);
  } else if constexpr (is_one_of_v<T, float, double>) {
    char digits[32];
    out.append(digits, std::to_chars(digits, digits + sizeof digits,
                                     static_cast<double>(part),
                                     std::chars_format::general, 6)
                           .ptr);
  } else {
    std::ostringstream os;
    os << part;
    out += os.str();
  }
}

}  // namespace detail

/// Concatenates all arguments as an ostringstream would print them, but
/// without building one for text and numbers. The building block for
/// log lines and error messages (GCC 12 lacks std::format).
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  std::string out;
  (detail::append_part(out, args), ...);
  return out;
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
