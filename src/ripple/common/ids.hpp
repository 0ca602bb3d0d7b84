#pragma once

/// \file ids.hpp
/// Entity UID generation, mirroring RADICAL-Pilot's `prefix.000042` scheme.
///
/// UIDs are strings so that logs, metrics and JSON payloads stay readable.
/// A process-wide generator hands out monotonically increasing counters per
/// prefix; tests can reset it for reproducible fixtures.
///
/// Minting sits on the per-message path: every RPC mints a request and a
/// reply uid. So next() builds "prefix.NNNNNN" in one reserved string and
/// renders the counter with std::to_chars (strutil::zero_pad), never
/// through a stream; the bytes are those the stream rendering produced.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ripple::common {

/// Thread-safe per-prefix counter, producing uids like "task.000007".
class IdGenerator {
 public:
  /// Returns the next uid for `prefix` (e.g. "task" -> "task.000000").
  [[nodiscard]] std::string next(const std::string& prefix);

  /// Number of uids handed out so far for `prefix`.
  [[nodiscard]] std::uint64_t count(const std::string& prefix) const;

  /// Resets all counters. Intended for test fixtures only.
  void reset();

  /// The process-wide generator used by `make_uid`.
  static IdGenerator& global();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint64_t> counters_;
};

/// Convenience wrapper over IdGenerator::global().
[[nodiscard]] std::string make_uid(const std::string& prefix);

}  // namespace ripple::common
