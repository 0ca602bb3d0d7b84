#pragma once

/// \file runtime.hpp
/// The shared runtime context: event loop, network, router, pub/sub bus,
/// metrics and the master RNG. One Runtime exists per Session; every
/// component receives a reference.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ripple/common/ids.hpp"
#include "ripple/common/logging.hpp"
#include "ripple/common/random.hpp"
#include "ripple/metrics/counters.hpp"
#include "ripple/metrics/registry.hpp"
#include "ripple/metrics/timeline.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/msg/pubsub.hpp"
#include "ripple/msg/router.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"

namespace ripple::core {

class Runtime {
 public:
  explicit Runtime(std::uint64_t seed);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }
  [[nodiscard]] msg::Router& router() noexcept { return router_; }
  [[nodiscard]] msg::PubSub& pubsub() noexcept { return pubsub_; }
  [[nodiscard]] metrics::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] metrics::Timeline& timeline() noexcept { return timeline_; }
  /// Runtime-wide span tracer; off by default (Session::enable_tracing).
  [[nodiscard]] metrics::Tracer& tracer() noexcept { return tracer_; }
  /// Runtime-wide counters/gauges; off by default alongside the tracer.
  [[nodiscard]] metrics::Counters& counters() noexcept { return counters_; }
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// A logger stamped with simulation time.
  [[nodiscard]] common::Logger make_logger(const std::string& name);

  /// Session-local uid generation. Entity uids seed per-entity RNG
  /// streams, so uids must be session-scoped (not process-global) for
  /// same-seed runs to be bit-identical.
  [[nodiscard]] std::string make_uid(const std::string& prefix) {
    return ids_.next(prefix);
  }

  /// Registers a new entity with the Timeline (`kind` is "task",
  /// "service" or "pilot") and reports its first state; its later
  /// transitions are reported under the returned id.
  [[nodiscard]] metrics::Timeline::EntityId add_entity(std::string_view kind,
                                                       std::string_view uid,
                                                       std::string_view state);

  /// Reports an entity state transition. The Timeline records it at
  /// once. Only when the bus has a "state" subscriber is the transition
  /// also published there as a JSON event {kind, uid, state, time},
  /// delivered asynchronously.
  void publish_state(metrics::Timeline::EntityId entity,
                     std::string_view state);

  /// Live endpoint directory, updated *synchronously* by the
  /// ServiceManager as services enter/leave RUNNING (the matching
  /// "endpoints" pub/sub event is delivered asynchronously). Late
  /// subscribers — e.g. watch-mode inference clients that start after
  /// a replica came up — reconcile against this snapshot first, then
  /// follow the events; without it, an up/down transition between
  /// snapshot and subscription would be lost forever.
  void register_endpoint(const std::string& name,
                         const std::string& endpoint);
  void deregister_endpoint(const std::string& name,
                           const std::string& endpoint);
  [[nodiscard]] std::vector<std::string> endpoints_of(
      const std::string& name) const;

 private:
  std::uint64_t seed_;
  common::IdGenerator ids_;
  common::Rng rng_;
  sim::EventLoop loop_;
  sim::Network network_;
  msg::Router router_;
  msg::PubSub pubsub_;
  metrics::Registry metrics_;
  metrics::Timeline timeline_;
  metrics::Tracer tracer_;
  metrics::Counters counters_;
  std::map<std::string, std::set<std::string>> endpoint_directory_;
};

}  // namespace ripple::core
