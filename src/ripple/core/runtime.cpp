#include "ripple/core/runtime.hpp"

namespace ripple::core {

Runtime::Runtime(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      network_(loop_, rng_.fork("network")),
      router_(loop_, network_),
      pubsub_(loop_) {}

common::Logger Runtime::make_logger(const std::string& name) {
  return common::Logger(name, [this] { return loop_.now(); });
}

metrics::Timeline::EntityId Runtime::add_entity(std::string_view kind,
                                                std::string_view uid,
                                                std::string_view state) {
  const metrics::Timeline::EntityId entity = timeline_.add(uid, kind);
  publish_state(entity, state);
  return entity;
}

void Runtime::publish_state(metrics::Timeline::EntityId entity,
                            std::string_view state) {
  const double now = loop_.now();
  timeline_.record(entity, state, now);
  if (!pubsub_.has_subscribers("state")) return;
  json::Value event = json::Value::object();
  event.set("kind", timeline_.kind(entity));
  event.set("uid", timeline_.uid(entity));
  event.set("state", state);
  event.set("time", now);
  pubsub_.publish("state", std::move(event));
}

void Runtime::register_endpoint(const std::string& name,
                                const std::string& endpoint) {
  endpoint_directory_[name].insert(endpoint);
}

void Runtime::deregister_endpoint(const std::string& name,
                                  const std::string& endpoint) {
  const auto it = endpoint_directory_.find(name);
  if (it == endpoint_directory_.end()) return;
  it->second.erase(endpoint);
  if (it->second.empty()) endpoint_directory_.erase(it);
}

std::vector<std::string> Runtime::endpoints_of(
    const std::string& name) const {
  const auto it = endpoint_directory_.find(name);
  if (it == endpoint_directory_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace ripple::core
