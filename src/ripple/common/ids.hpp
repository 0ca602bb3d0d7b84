#pragma once

/// \file ids.hpp
/// Entity UID generation, mirroring RADICAL-Pilot's `prefix.000042` scheme.
///
/// UIDs are strings so that logs, metrics and JSON payloads stay readable.
/// Each session owns a generator (core::Runtime::make_uid) that hands out
/// monotonically increasing counters per prefix, so a session's uids do
/// not depend on what other sessions in the process minted.
///
/// next() builds "prefix.NNNNNN" in one reserved string and renders the
/// counter with std::to_chars (strutil::zero_pad), never through a
/// stream; the bytes are those the stream rendering produced.

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

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint64_t> counters_;
};

}  // namespace ripple::common
