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

void Timeline::Interner::clear() {
  ids_.clear();
  names_.clear();
}

void Timeline::record(std::string_view entity, std::string_view kind,
                      std::string_view state, double time) {
  const std::uint32_t kind_id = names_.intern(kind);
  const std::uint32_t state_id = names_.intern(state);
  ensure(names_.size() <= std::size_t{UINT16_MAX} + 1, Errc::capacity,
         "timeline: too many distinct kind and state names");
  log_.push_back(Entry{entities_.intern(entity),
                       static_cast<std::uint16_t>(kind_id),
                       static_cast<std::uint16_t>(state_id), time});
}

std::vector<TransitionRecord> Timeline::records() const {
  std::vector<TransitionRecord> out;
  out.reserve(log_.size());
  for (const Entry& entry : log_) {
    out.push_back({entities_.name(entry.entity), names_.name(entry.kind),
                   names_.name(entry.state), entry.time});
  }
  return out;
}

const std::vector<double>* Timeline::entries(const std::string& entity,
                                             const std::string& state) const {
  const std::uint32_t entity_id = entities_.find(entity);
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

std::vector<std::uint32_t> Timeline::first_entries(
    const std::string& kind, const std::string& state) const {
  std::vector<std::uint32_t> out;
  const std::uint32_t kind_id = names_.find(kind);
  const std::uint32_t state_id = names_.find(state);
  if (kind_id == Interner::kAbsent || state_id == Interner::kAbsent) {
    return out;
  }
  std::vector<bool> seen(entities_.size(), false);
  for (const Entry& entry : log_) {
    if (entry.kind == kind_id && entry.state == state_id &&
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
  for (const std::uint32_t id : first_entries(kind, state)) {
    out.push_back(entities_.name(id));
  }
  return out;
}

void Timeline::clear() {
  entities_.clear();
  names_.clear();
  log_.clear();
  index_.clear();
  indexed_ = 0;
}

}  // namespace ripple::metrics
