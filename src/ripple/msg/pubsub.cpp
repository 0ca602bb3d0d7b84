#include "ripple/msg/pubsub.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"

namespace ripple::msg {

PubSub::SubscriptionId PubSub::subscribe(const std::string& topic,
                                         Subscriber subscriber) {
  ensure(static_cast<bool>(subscriber), Errc::invalid_argument,
         "subscribe: empty subscriber");
  const SubscriptionId id = next_id_++;
  topics_[topic].push_back(Entry{id, std::move(subscriber)});
  return id;
}

PubSub::SubscriptionId PubSub::subscribe_all(Subscriber subscriber) {
  ensure(static_cast<bool>(subscriber), Errc::invalid_argument,
         "subscribe_all: empty subscriber");
  const SubscriptionId id = next_id_++;
  wildcard_.push_back(Entry{id, std::move(subscriber)});
  return id;
}

void PubSub::unsubscribe(SubscriptionId id) {
  const auto remove_from = [id](std::vector<Entry>& entries) {
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [id](const Entry& e) { return e.id == id; }),
                  entries.end());
  };
  for (auto& [topic, entries] : topics_) remove_from(entries);
  remove_from(wildcard_);
}

bool PubSub::has_subscribers(std::string_view topic) const {
  if (!wildcard_.empty()) return true;
  const auto it = topics_.find(topic);
  return it != topics_.end() && !it->second.empty();
}

void PubSub::publish(const std::string& topic, json::Value event) {
  ++published_;
  // Snapshot matching subscribers now; deliver asynchronously so that
  // publishing from within a subscriber cannot recurse.
  std::vector<Subscriber> matched;
  const auto it = topics_.find(topic);
  if (it != topics_.end()) {
    for (const auto& entry : it->second) matched.push_back(entry.subscriber);
  }
  for (const auto& entry : wildcard_) matched.push_back(entry.subscriber);
  if (matched.empty()) return;

  loop_.post([topic, event = std::move(event),
              matched = std::move(matched)] {
    for (const auto& subscriber : matched) subscriber(topic, event);
  });
}

}  // namespace ripple::msg
