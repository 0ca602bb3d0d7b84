#pragma once

/// \file tracer.hpp
/// Deterministic sim-time span tracing for the whole runtime.
///
/// The Tracer records nested begin/end spans (task lifecycle phases,
/// scheduler placement passes, transfers, batch steps, recovery
/// episodes) stamped with *simulation* time. Tracing is off by default;
/// when disabled every call is a single branch and no memory is
/// touched, so instrumented hot paths stay cheap.
///
/// Determinism is the house style and observability is no exception:
/// span ids derive from the owning entity's uid plus a session-local
/// sequence (never from addresses or wall time), and spans land in the
/// log in begin order on the event-loop thread. The same seed therefore
/// yields a bit-identical span log, which `span_log_hash()`
/// fingerprints (FNV-1a) and the determinism suites assert.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ripple::metrics {

/// Stable span identifier: fnv1a(entity uid) folded with the span's
/// session-local sequence number. 0 means "no span" (the null parent,
/// or a begin() issued while tracing is disabled); end()/arg() on id 0
/// are no-ops, so call sites need no enabled() guards of their own.
using SpanId = std::uint64_t;

/// One traced interval. `end < 0` while the span is still open.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;     ///< enclosing span, 0 for roots
  std::string name;      ///< e.g. "queue-wait", "run", "stage-in"
  std::string category;  ///< e.g. "task", "queue", "data", "compute"
  std::string entity;    ///< uid of the owning entity
  double begin = 0.0;
  double end = -1.0;
  /// Deterministically ordered key/value annotations.
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  using Args = std::initializer_list<std::pair<std::string, std::string>>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Tracing is off by default; everything below no-ops until enabled.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span at `time`. Returns 0 when disabled.
  SpanId begin(std::string name, std::string category, std::string entity,
               double time, SpanId parent = 0, Args args = {});

  /// Closes an open span; unknown/zero ids are ignored (the span may
  /// have been opened before tracing was enabled, or never opened).
  void end(SpanId id, double time);

  /// Appends an annotation to an open span; no-op on unknown ids.
  void arg(SpanId id, std::string key, std::string value);

  /// A zero-length marker span (Chrome "instant"-style).
  void instant(std::string name, std::string category, std::string entity,
               double time, SpanId parent = 0, Args args = {});

  /// Records an already-closed span in one call.
  SpanId complete(std::string name, std::string category, std::string entity,
                  double begin_time, double end_time, SpanId parent = 0,
                  Args args = {});

  // --- inspection --------------------------------------------------

  /// The span log, in deterministic begin order.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Spans begun but not yet ended.
  [[nodiscard]] std::size_t open_spans() const noexcept {
    return open_.size();
  }

  /// FNV-1a fingerprint of the full span log (names, categories,
  /// entities, times, parents, args). Same seed => same hash.
  [[nodiscard]] std::uint64_t span_log_hash() const;

  void clear();

 private:
  [[nodiscard]] SpanId make_id(const std::string& entity);

  bool enabled_ = false;
  std::uint64_t next_sequence_ = 0;
  std::vector<Span> spans_;
  std::map<SpanId, std::size_t> open_;  ///< open span id -> log index
};

}  // namespace ripple::metrics
