#pragma once

/// \file timeline.hpp
/// State-transition timeline, written synchronously by
/// core::Runtime::publish_state.
///
/// Mirrors RADICAL-Analytics: every entity (pilot, task, service)
/// reports timestamped state transitions; the Timeline records every
/// time each entity entered each state and answers duration queries
/// such as "time from LAUNCHING to RUNNING of service X". Entities may
/// re-enter a state (a task restarted after a node crash runs twice);
/// state_time() keeps its historical first-entry semantics while
/// state_times()/last_state_time()/entry_count() expose the full
/// history.
///
/// The record is a flat log of (entity, kind, state, time) with the
/// names interned to small ids, so recording is an append. The
/// (entity, state) -> entry-times index behind the per-entity queries
/// is built on the first such query and extended by later ones. Like
/// the rest of the runtime, a Timeline belongs to the loop thread.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ripple::metrics {

struct TransitionRecord {
  std::string entity;  ///< uid
  std::string kind;    ///< "task" | "service" | "pilot"
  std::string state;
  double time = 0.0;
};

class Timeline {
 public:
  /// Appends one transition.
  void record(std::string_view entity, std::string_view kind,
              std::string_view state, double time);

  /// Every transition, in record order.
  [[nodiscard]] std::vector<TransitionRecord> records() const;

  /// First time `entity` entered `state`; -1 when never.
  [[nodiscard]] double state_time(const std::string& entity,
                                  const std::string& state) const;

  /// Every time `entity` entered `state`, in record order; empty when
  /// never. Restarted/speculated tasks enter RUNNING more than once.
  [[nodiscard]] const std::vector<double>& state_times(
      const std::string& entity, const std::string& state) const;

  /// Most recent time `entity` entered `state`; -1 when never.
  [[nodiscard]] double last_state_time(const std::string& entity,
                                       const std::string& state) const;

  /// How many times `entity` entered `state`.
  [[nodiscard]] std::size_t entry_count(const std::string& entity,
                                        const std::string& state) const;

  /// state_time(to) - state_time(from); throws when either is missing.
  [[nodiscard]] double duration(const std::string& entity,
                                const std::string& from,
                                const std::string& to) const;

  /// Number of distinct entities of `kind` that ever entered `state`.
  [[nodiscard]] std::size_t count(const std::string& kind,
                                  const std::string& state) const;

  /// All uids of `kind` that entered `state`, in first-entry order.
  [[nodiscard]] std::vector<std::string> entities_in(
      const std::string& kind, const std::string& state) const;

  void clear();

 private:
  /// Distinct strings, each stored once, numbered in first-seen order.
  class Interner {
   public:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    Interner() = default;
    // A copy's ids_ would still view the original's names.
    Interner(const Interner&) = delete;
    Interner& operator=(const Interner&) = delete;

    std::uint32_t intern(std::string_view name);
    /// The id of `name`, or kAbsent when it was never interned.
    [[nodiscard]] std::uint32_t find(std::string_view name) const;
    [[nodiscard]] const std::string& name(std::uint32_t id) const {
      return names_[id];
    }
    [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
    void clear();

   private:
    std::deque<std::string> names_;  ///< stable: ids_ views into it
    std::unordered_map<std::string_view, std::uint32_t> ids_;
  };

  struct Entry {
    std::uint32_t entity;
    std::uint16_t kind;  ///< ids in names_, shared by kinds and states
    std::uint16_t state;
    double time;
  };

  /// The entry times of (entity, state), or null when never entered.
  [[nodiscard]] const std::vector<double>* entries(
      const std::string& entity, const std::string& state) const;
  /// The entities of `kind` that entered `state`, in first-entry order.
  [[nodiscard]] std::vector<std::uint32_t> first_entries(
      const std::string& kind, const std::string& state) const;

  Interner entities_;
  Interner names_;
  std::vector<Entry> log_;
  /// (entity id << 32 | state id) -> entry times, covering log_[0, indexed_).
  mutable std::unordered_map<std::uint64_t, std::vector<double>> index_;
  mutable std::size_t indexed_ = 0;
};

}  // namespace ripple::metrics
