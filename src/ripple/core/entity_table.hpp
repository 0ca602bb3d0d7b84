#pragma once

/// \file entity_table.hpp
/// The record table behind TaskManager and ServiceManager.
///
/// Each record sits in a creation-order slot addressed by a dense 32-bit
/// id. A slot never moves and an id is never reused, so an internal
/// callback captures the id and reaches its record with one index. The
/// uid -> id index serves only the public API, which names entities by
/// uid. Ids follow creation order, which is uid order only while uids
/// fit their six-digit pad ("task.1000000" sorts before "task.999999"),
/// so every walk whose order can be observed sorts by uid.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ripple/common/error.hpp"

namespace ripple::core {

/// A task's or service's handle within its manager.
using EntityId = std::uint32_t;

/// `Record` exposes its entity's `uid()` and `state()`.
template <typename Record>
class EntityTable {
 public:
  /// `kind` names the entity in lookup errors ("unknown task 'x'").
  explicit EntityTable(const char* kind) : kind_(kind) {}

  // The index views the records' uids.
  EntityTable(const EntityTable&) = delete;
  EntityTable& operator=(const EntityTable&) = delete;

  /// Constructs a record in the next slot; returns its id.
  template <typename... Args>
  EntityId emplace(Args&&... args) {
    const auto id = static_cast<EntityId>(records_.size());
    const Record& record = records_.emplace_back(std::forward<Args>(args)...);
    if (!ids_.emplace(record.uid(), id).second) {
      records_.pop_back();
      raise(Errc::internal, strutil::cat("duplicate ", kind_, " uid"));
    }
    return id;
  }

  [[nodiscard]] Record& operator[](EntityId id) { return records_[id]; }
  [[nodiscard]] const Record& operator[](EntityId id) const {
    return records_[id];
  }

  [[nodiscard]] bool exists(std::string_view uid) const {
    return ids_.count(uid) != 0;
  }

  /// The record of `uid`; throws not_found when it names none.
  [[nodiscard]] Record& at(std::string_view uid) {
    return const_cast<Record&>(std::as_const(*this).at(uid));
  }
  [[nodiscard]] const Record& at(std::string_view uid) const {
    const auto it = ids_.find(uid);
    ensure(it != ids_.end(), Errc::not_found, "unknown ", kind_, " '", uid,
           "'");
    return records_[it->second];
  }

  /// Sorts `ids` by their records' uids.
  void sort_by_uid(std::vector<EntityId>& ids) const {
    std::sort(ids.begin(), ids.end(), [this](EntityId a, EntityId b) {
      return records_[a].uid() < records_[b].uid();
    });
  }

  /// Every id, in uid order.
  [[nodiscard]] std::vector<EntityId> in_uid_order() const {
    std::vector<EntityId> ids(records_.size());
    std::iota(ids.begin(), ids.end(), EntityId{0});
    sort_by_uid(ids);
    return ids;
  }

  /// Every uid, in uid order.
  [[nodiscard]] std::vector<std::string> uids() const {
    std::vector<std::string> out;
    out.reserve(records_.size());
    for (const EntityId id : in_uid_order()) {
      out.push_back(records_[id].uid());
    }
    return out;
  }

  template <typename State>
  [[nodiscard]] std::size_t count_in_state(State state) const {
    return static_cast<std::size_t>(
        std::count_if(records_.begin(), records_.end(),
                      [state](const Record& r) { return r.state() == state; }));
  }

  /// Records in creation (id) order.
  [[nodiscard]] auto begin() const noexcept { return records_.begin(); }
  [[nodiscard]] auto end() const noexcept { return records_.end(); }

 private:
  const char* kind_;
  std::deque<Record> records_;  ///< stable: ids_ views their uids
  std::unordered_map<std::string_view, EntityId> ids_;
};

}  // namespace ripple::core
