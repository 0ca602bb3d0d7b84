#include "ripple/core/failure_coordinator.hpp"

#include <algorithm>
#include <limits>

#include "ripple/common/strutil.hpp"
#include "ripple/core/session.hpp"

namespace ripple::core {

namespace {

using sim::FailureKind;

/// Splits a "zoneA|zoneB" link target.
std::pair<std::string, std::string> split_pair(const std::string& target) {
  const auto bar = target.find('|');
  if (bar == std::string::npos) return {target, ""};
  return {target.substr(0, bar), target.substr(bar + 1)};
}

}  // namespace

FailureCoordinator::FailureCoordinator(Session& session)
    : session_(session),
      injector_(session.runtime().loop(),
                session.runtime().rng().fork("failures")),
      log_(session.runtime().make_logger("failures")) {
  injector_.on(FailureKind::node_crash,
               [this](const sim::FailureEvent& event) {
                 on_node_crash(event.target);
               });
  injector_.on(FailureKind::node_restore,
               [this](const sim::FailureEvent& event) {
                 on_node_restore(event.target);
               });
  injector_.on(FailureKind::pilot_preempt,
               [this](const sim::FailureEvent& event) {
                 on_pilot_preempt(event.target);
               });
  injector_.on(FailureKind::slow_node,
               [this](const sim::FailureEvent& event) {
                 on_slow_node(event.target, event.magnitude);
               });
  injector_.on(FailureKind::node_normal,
               [this](const sim::FailureEvent& event) {
                 on_node_normal(event.target);
               });
  injector_.on(FailureKind::link_down,
               [this](const sim::FailureEvent& event) {
                 on_link_down(event.target);
               });
  injector_.on(FailureKind::link_up, [this](const sim::FailureEvent& event) {
    on_link_up(event.target);
  });
  injector_.on(FailureKind::store_crash,
               [this](const sim::FailureEvent& event) {
                 on_store_crash(event.target);
               });
  injector_.on(FailureKind::store_restore,
               [this](const sim::FailureEvent& event) {
                 on_store_restore(event.target);
               });
}

// ---------------------------------------------------------------------------
// Arming helpers
// ---------------------------------------------------------------------------

void FailureCoordinator::arm_node_crashes(
    const std::string& cluster, sim::FailureInjector::Schedule schedule) {
  platform::Cluster& target = session_.cluster(cluster);
  std::vector<std::string> nodes;
  nodes.reserve(target.node_count());
  for (std::size_t i = 0; i < target.node_count(); ++i) {
    nodes.push_back(target.node(i).id());
  }
  injector_.arm(FailureKind::node_crash, std::move(nodes), schedule);
}

void FailureCoordinator::arm_slow_nodes(
    const std::string& cluster, sim::FailureInjector::Schedule schedule) {
  platform::Cluster& target = session_.cluster(cluster);
  std::vector<std::string> nodes;
  nodes.reserve(target.node_count());
  for (std::size_t i = 0; i < target.node_count(); ++i) {
    nodes.push_back(target.node(i).id());
  }
  injector_.arm(FailureKind::slow_node, std::move(nodes), schedule);
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

platform::Node* FailureCoordinator::find_node(const std::string& node_id) {
  for (const std::string& name : session_.cluster_names()) {
    platform::Node* node = session_.cluster(name).find_node(node_id);
    if (node != nullptr) return node;
  }
  return nullptr;
}

std::vector<std::string> FailureCoordinator::pilots_of(
    const platform::Node& node) const {
  std::vector<std::string> owners;
  auto& session = const_cast<Session&>(session_);
  for (const std::string& uid : session.pilot_uids()) {
    Pilot& pilot = session.pilot(uid);
    if (is_terminal(pilot.state())) continue;
    const auto& nodes = pilot.nodes();
    if (std::find(nodes.begin(), nodes.end(), &node) != nodes.end()) {
      owners.push_back(uid);
    }
  }
  return owners;
}

void FailureCoordinator::trace_fault(const char* name,
                                     const std::string& target,
                                     bool repair) {
  session_.counters().add(repair ? "fault.repaired" : "fault.injected");
  if (session_.tracer().enabled()) {
    session_.tracer().instant(name, "fault", target, session_.now());
  }
}

// ---------------------------------------------------------------------------
// Event reactions
// ---------------------------------------------------------------------------

void FailureCoordinator::on_node_crash(const std::string& node_id) {
  platform::Node* node = find_node(node_id);
  if (node == nullptr || !node->alive()) return;
  log_.info("node ", node_id, " crashed");
  trace_fault("node-crash", node_id, /*repair=*/false);
  for (const std::string& name : session_.cluster_names()) {
    if (session_.cluster(name).find_node(node_id) != nullptr) {
      session_.cluster(name).fail_node(*node);
      break;
    }
  }
  session_.tasks().handle_node_failure(*node);
}

void FailureCoordinator::on_node_restore(const std::string& node_id) {
  platform::Node* node = find_node(node_id);
  if (node == nullptr || node->alive()) return;
  log_.info("node ", node_id, " restored");
  trace_fault("node-restore", node_id, /*repair=*/true);
  for (const std::string& name : session_.cluster_names()) {
    if (session_.cluster(name).find_node(node_id) != nullptr) {
      session_.cluster(name).restore_node(*node);
      break;
    }
  }
  // The rejoined capacity is offered to the owning pilot's queue now
  // rather than on the next grant/release event.
  for (const std::string& uid : pilots_of(*node)) {
    if (session_.scheduler().has_pilot(uid)) {
      session_.scheduler().reschedule(uid);
    }
  }
}

void FailureCoordinator::on_pilot_preempt(const std::string& pilot_uid) {
  const auto uids = session_.pilot_uids();
  if (std::find(uids.begin(), uids.end(), pilot_uid) == uids.end()) return;
  if (is_terminal(session_.pilot(pilot_uid).state())) return;
  log_.info("pilot ", pilot_uid, " preempted");
  trace_fault("pilot-preempt", pilot_uid, /*repair=*/false);
  session_.fail_pilot(pilot_uid);
}

void FailureCoordinator::on_slow_node(const std::string& node_id,
                                      double magnitude) {
  platform::Node* node = find_node(node_id);
  if (node == nullptr || !node->alive()) return;
  const double factor = magnitude > 1.0 ? magnitude : 2.0;
  log_.info("node ", node_id, " slowed x", strutil::format_fixed(factor, 2));
  trace_fault("slow-node", node_id, /*repair=*/false);
  node->set_speed_factor(factor);
}

void FailureCoordinator::on_node_normal(const std::string& node_id) {
  platform::Node* node = find_node(node_id);
  if (node == nullptr) return;
  trace_fault("node-normal", node_id, /*repair=*/true);
  node->set_speed_factor(1.0);
}

void FailureCoordinator::on_link_down(const std::string& pair) {
  const auto [a, b] = split_pair(pair);
  if (a.empty() || b.empty()) return;
  log_.info("link ", a, " <-> ", b, " down");
  trace_fault("link-down", pair, /*repair=*/false);
  session_.data().engine().fail_link(a, b);
}

void FailureCoordinator::on_link_up(const std::string& pair) {
  const auto [a, b] = split_pair(pair);
  if (a.empty() || b.empty()) return;
  log_.info("link ", a, " <-> ", b, " up");
  trace_fault("link-up", pair, /*repair=*/true);
  session_.data().engine().restore_link(a, b);
}

void FailureCoordinator::on_store_crash(const std::string& zone) {
  const double capacity = session_.data().catalog().store(zone).capacity;
  failed_store_capacity_[zone] = capacity;
  log_.info("store ", zone, " crashed");
  trace_fault("store-crash", zone, /*repair=*/false);
  session_.data().handle_store_failure(zone);
}

void FailureCoordinator::on_store_restore(const std::string& zone) {
  const auto it = failed_store_capacity_.find(zone);
  if (it == failed_store_capacity_.end()) return;
  const double capacity = it->second;
  failed_store_capacity_.erase(it);
  log_.info("store ", zone, " restored");
  trace_fault("store-restore", zone, /*repair=*/true);
  if (capacity < std::numeric_limits<double>::infinity()) {
    session_.data().add_store(zone, capacity);
  }
}

}  // namespace ripple::core
