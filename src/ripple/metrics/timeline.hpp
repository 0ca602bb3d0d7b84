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
/// An entity is registered once, at creation, and gets a dense id; each
/// transition is then recorded as (id, state, time), an append that
/// hashes no uid. The per-entity queries take uids: the uid -> id index
/// and the (entity, state) -> entry-times index behind them are built on
/// the first such query and extended by later ones. Like the rest of the
/// runtime, a Timeline belongs to the loop thread.

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
  /// A registered entity, numbered in registration order.
  using EntityId = std::uint32_t;

  /// Registers `entity` (a uid, registered once) of `kind`; its
  /// transitions are recorded under the returned id.
  [[nodiscard]] EntityId add(std::string_view entity, std::string_view kind);

  /// Appends one transition of a registered entity.
  void record(EntityId entity, std::string_view state, double time);

  /// The uid and the kind `entity` was registered with.
  [[nodiscard]] const std::string& uid(EntityId entity) const {
    return entities_[entity].uid;
  }
  [[nodiscard]] const std::string& kind(EntityId entity) const {
    return names_.name(entities_[entity].kind);
  }

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

  /// Drops every recorded transition; registered entities keep their ids.
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

   private:
    std::deque<std::string> names_;  ///< stable: ids_ views into it
    std::unordered_map<std::string_view, std::uint32_t> ids_;
  };

  struct Entity {
    std::string uid;
    std::uint32_t kind;  ///< id in names_
  };

  struct Entry {
    EntityId entity;
    std::uint32_t state;  ///< id in names_, shared by kinds and states
    double time;
  };

  /// The id of `entity`, or Interner::kAbsent when it was never added.
  [[nodiscard]] EntityId find(const std::string& entity) const;
  /// The entry times of (entity, state), or null when never entered.
  [[nodiscard]] const std::vector<double>* entries(
      const std::string& entity, const std::string& state) const;
  /// The entities of `kind` that entered `state`, in first-entry order.
  [[nodiscard]] std::vector<EntityId> first_entries(
      const std::string& kind, const std::string& state) const;

  std::deque<Entity> entities_;  ///< stable: ids_ views their uids
  Interner names_;
  std::vector<Entry> log_;
  /// uid -> id, covering entities_[0, ids_indexed_).
  mutable std::unordered_map<std::string_view, EntityId> ids_;
  mutable std::size_t ids_indexed_ = 0;
  /// (entity id << 32 | state id) -> entry times, covering log_[0, indexed_).
  mutable std::unordered_map<std::uint64_t, std::vector<double>> index_;
  mutable std::size_t indexed_ = 0;
};

}  // namespace ripple::metrics
