#pragma once

/// \file pubsub.hpp
/// In-process publish/subscribe bus for control and state updates.
///
/// Plays the role of RADICAL-Pilot's state-update channels (Fig. 2 of
/// the paper, "Comm. Queue"). Delivery is asynchronous through the event
/// loop — subscribers run after the publisher's current event completes,
/// in subscription order — which keeps update handling deterministic.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ripple/common/json.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::msg {

class PubSub {
 public:
  using SubscriptionId = std::uint64_t;
  using Subscriber =
      std::function<void(const std::string& topic, const json::Value& event)>;

  explicit PubSub(sim::EventLoop& loop) : loop_(loop) {}

  /// Subscribes to an exact topic. Returns an id for unsubscribe.
  SubscriptionId subscribe(const std::string& topic, Subscriber subscriber);

  /// Subscribes to every topic (wildcard).
  SubscriptionId subscribe_all(Subscriber subscriber);

  void unsubscribe(SubscriptionId id);

  /// Publishes `event` to all matching subscribers asynchronously.
  void publish(const std::string& topic, json::Value event);

  /// True when a publish on `topic` would reach a subscriber (exact or
  /// wildcard); publishers use it to skip building unread events.
  [[nodiscard]] bool has_subscribers(std::string_view topic) const;

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }

 private:
  struct Entry {
    SubscriptionId id;
    Subscriber subscriber;
  };

  sim::EventLoop& loop_;
  std::map<std::string, std::vector<Entry>, std::less<>> topics_;
  std::vector<Entry> wildcard_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
};

}  // namespace ripple::msg
