#include "ripple/metrics/timeline.hpp"

#include <set>

#include "ripple/common/error.hpp"

namespace ripple::metrics {

Timeline::Timeline(msg::PubSub& bus) {
  bus.subscribe("state", [this](const std::string&, const json::Value& event) {
    TransitionRecord record;
    record.entity = event.at("uid").as_string();
    record.kind = event.at("kind").as_string();
    record.state = event.at("state").as_string();
    record.time = event.at("time").as_double();
    this->record(std::move(record));
  });
}

void Timeline::record(TransitionRecord record) {
  entries_[{record.entity, record.state}].push_back(record.time);
  records_.push_back(std::move(record));
}

double Timeline::state_time(const std::string& entity,
                            const std::string& state) const {
  const auto it = entries_.find({entity, state});
  return it == entries_.end() ? -1.0 : it->second.front();
}

const std::vector<double>& Timeline::state_times(
    const std::string& entity, const std::string& state) const {
  static const std::vector<double> kEmpty;
  const auto it = entries_.find({entity, state});
  return it == entries_.end() ? kEmpty : it->second;
}

double Timeline::last_state_time(const std::string& entity,
                                 const std::string& state) const {
  const auto it = entries_.find({entity, state});
  return it == entries_.end() ? -1.0 : it->second.back();
}

std::size_t Timeline::entry_count(const std::string& entity,
                                  const std::string& state) const {
  const auto it = entries_.find({entity, state});
  return it == entries_.end() ? 0 : it->second.size();
}

double Timeline::duration(const std::string& entity, const std::string& from,
                          const std::string& to) const {
  const double t_from = state_time(entity, from);
  const double t_to = state_time(entity, to);
  ensure(t_from >= 0.0, Errc::not_found, entity, " never entered state ", from);
  ensure(t_to >= 0.0, Errc::not_found, entity, " never entered state ", to);
  return t_to - t_from;
}

std::size_t Timeline::count(const std::string& kind,
                            const std::string& state) const {
  std::set<std::string> seen;
  for (const auto& record : records_) {
    if (record.kind == kind && record.state == state) {
      seen.insert(record.entity);
    }
  }
  return seen.size();
}

std::vector<std::string> Timeline::entities_in(const std::string& kind,
                                               const std::string& state) const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& record : records_) {
    if (record.kind == kind && record.state == state &&
        seen.insert(record.entity).second) {
      out.push_back(record.entity);
    }
  }
  return out;
}

void Timeline::clear() {
  records_.clear();
  entries_.clear();
}

}  // namespace ripple::metrics
