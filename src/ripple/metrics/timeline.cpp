#include "ripple/metrics/timeline.hpp"

#include "ripple/common/error.hpp"

namespace ripple::metrics {

std::uint32_t Timeline::Interner::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

std::uint32_t Timeline::Interner::find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kAbsent : it->second;
}

Timeline::EntityId Timeline::add(std::string_view entity,
                                 std::string_view kind) {
  const auto id = static_cast<EntityId>(entities_.size());
  entities_.push_back(Entity{std::string(entity), names_.intern(kind)});
  return id;
}

void Timeline::record(EntityId entity, std::string_view state, double time) {
  log_.push_back(Entry{entity, names_.intern(state), time});
}

std::vector<TransitionRecord> Timeline::records() const {
  std::vector<TransitionRecord> out;
  out.reserve(log_.size());
  for (const Entry& entry : log_) {
    out.push_back({uid(entry.entity), kind(entry.entity),
                   names_.name(entry.state), entry.time});
  }
  return out;
}

Timeline::EntityId Timeline::find(const std::string& entity) const {
  for (; ids_indexed_ < entities_.size(); ++ids_indexed_) {
    ids_.emplace(entities_[ids_indexed_].uid,
                 static_cast<EntityId>(ids_indexed_));
  }
  const auto it = ids_.find(entity);
  return it == ids_.end() ? Interner::kAbsent : it->second;
}

const std::vector<double>* Timeline::entries(const std::string& entity,
                                             const std::string& state) const {
  const EntityId entity_id = find(entity);
  const std::uint32_t state_id = names_.find(state);
  if (entity_id == Interner::kAbsent || state_id == Interner::kAbsent) {
    return nullptr;
  }
  const auto key = [](std::uint64_t entity, std::uint64_t state) {
    return entity << 32 | state;
  };
  for (; indexed_ < log_.size(); ++indexed_) {
    const Entry& entry = log_[indexed_];
    index_[key(entry.entity, entry.state)].push_back(entry.time);
  }
  const auto it = index_.find(key(entity_id, state_id));
  return it == index_.end() ? nullptr : &it->second;
}

double Timeline::state_time(const std::string& entity,
                            const std::string& state) const {
  const auto* times = entries(entity, state);
  return times == nullptr ? -1.0 : times->front();
}

const std::vector<double>& Timeline::state_times(
    const std::string& entity, const std::string& state) const {
  static const std::vector<double> kEmpty;
  const auto* times = entries(entity, state);
  return times == nullptr ? kEmpty : *times;
}

double Timeline::last_state_time(const std::string& entity,
                                 const std::string& state) const {
  const auto* times = entries(entity, state);
  return times == nullptr ? -1.0 : times->back();
}

std::size_t Timeline::entry_count(const std::string& entity,
                                  const std::string& state) const {
  const auto* times = entries(entity, state);
  return times == nullptr ? 0 : times->size();
}

double Timeline::duration(const std::string& entity, const std::string& from,
                          const std::string& to) const {
  const double t_from = state_time(entity, from);
  const double t_to = state_time(entity, to);
  ensure(t_from >= 0.0, Errc::not_found, entity, " never entered state ", from);
  ensure(t_to >= 0.0, Errc::not_found, entity, " never entered state ", to);
  return t_to - t_from;
}

std::vector<Timeline::EntityId> Timeline::first_entries(
    const std::string& kind, const std::string& state) const {
  std::vector<EntityId> out;
  const std::uint32_t kind_id = names_.find(kind);
  const std::uint32_t state_id = names_.find(state);
  if (kind_id == Interner::kAbsent || state_id == Interner::kAbsent) {
    return out;
  }
  std::vector<bool> seen(entities_.size(), false);
  for (const Entry& entry : log_) {
    if (entry.state == state_id && entities_[entry.entity].kind == kind_id &&
        !seen[entry.entity]) {
      seen[entry.entity] = true;
      out.push_back(entry.entity);
    }
  }
  return out;
}

std::size_t Timeline::count(const std::string& kind,
                            const std::string& state) const {
  return first_entries(kind, state).size();
}

std::vector<std::string> Timeline::entities_in(const std::string& kind,
                                               const std::string& state) const {
  std::vector<std::string> out;
  for (const EntityId id : first_entries(kind, state)) {
    out.push_back(uid(id));
  }
  return out;
}

void Timeline::clear() {
  log_.clear();
  index_.clear();
  indexed_ = 0;
}

}  // namespace ripple::metrics
