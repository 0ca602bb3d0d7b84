#include "ripple/common/error.hpp"

namespace ripple {

const char* to_string(Errc code) noexcept {
  switch (code) {
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::invalid_state: return "invalid_state";
    case Errc::not_found: return "not_found";
    case Errc::timeout: return "timeout";
    case Errc::capacity: return "capacity";
    case Errc::parse_error: return "parse_error";
    case Errc::io_error: return "io_error";
    case Errc::internal: return "internal";
  }
  return "unknown";
}

Error::Error(Errc code, const std::string& message)
    : std::runtime_error(std::string(to_string(code)) + ": " + message),
      code_(code) {}

void raise(Errc code, const std::string& message) {
  throw Error(code, message);
}

}  // namespace ripple
