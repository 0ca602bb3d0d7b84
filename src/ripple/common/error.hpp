#pragma once

/// \file error.hpp
/// Error codes and the exception type used throughout Ripple.
///
/// Ripple follows the C++ Core Guidelines error model: exceptions signal
/// errors that cannot be handled locally, and `ensure()` documents
/// preconditions at API boundaries.

#include <stdexcept>
#include <string>

#include "ripple/common/strutil.hpp"

namespace ripple {

/// Coarse error classification carried by every ripple::Error.
enum class Errc {
  invalid_argument,  ///< caller passed a value outside the documented domain
  invalid_state,     ///< operation not legal in the entity's current state
  not_found,         ///< a named entity (task, service, host, ...) is unknown
  timeout,           ///< an operation exceeded its deadline
  capacity,          ///< a resource request exceeds what can ever be granted
  parse_error,       ///< malformed textual input (JSON, config, ...)
  io_error,          ///< file system or transport failure
  internal,          ///< invariant violation inside the library
};

/// Human-readable name of an error code (stable, lowercase).
[[nodiscard]] const char* to_string(Errc code) noexcept;

/// The exception type thrown by all Ripple components.
class Error : public std::runtime_error {
 public:
  Error(Errc code, const std::string& message);

  /// The machine-readable classification of this error.
  [[nodiscard]] Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

/// Throws ripple::Error with the given code and message.
[[noreturn]] void raise(Errc code, const std::string& message);

/// Precondition / invariant check: throws ripple::Error when `condition`
/// is false. Used at public API boundaries instead of assert() so that
/// misuse is diagnosable in release builds. The message is `parts`
/// concatenated by strutil::cat, which runs only when the check fails:
/// a passing check formats and allocates nothing.
template <typename... Parts>
void ensure(bool condition, Errc code, const Parts&... parts) {
  if (!condition) [[unlikely]] {
    raise(code, strutil::cat(parts...));
  }
}

}  // namespace ripple
