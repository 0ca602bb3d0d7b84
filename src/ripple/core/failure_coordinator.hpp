#pragma once

/// \file failure_coordinator.hpp
/// Wires the seeded sim::FailureInjector into the running Session.
///
/// The injector only produces a deterministic event stream; this class
/// gives each event its runtime meaning:
///
///   node_crash     -> Cluster::fail_node (capacity index evicts the
///                     node) + TaskManager::handle_node_failure (placed
///                     attempts re-enter scheduling with backoff)
///   node_restore   -> Cluster::restore_node + Scheduler::reschedule of
///                     the owning pilot (the recovered capacity is
///                     offered to the queue immediately)
///   pilot_preempt  -> Session::fail_pilot (spot reclamation: scheduler
///                     entry removed, nodes released, every bound task
///                     re-bound to a surviving pilot or failed)
///   slow_node      -> Node::set_speed_factor(magnitude) — subsequent
///                     launches on the node run slower (stragglers);
///                     node_normal resets the factor
///   link_down      -> TransferEngine::fail_link (in-flight attempts
///                     die terminally; stripes fail over to surviving
///                     links); link_up restores and drains the queue
///   store_crash    -> DataManager::handle_store_failure (replicas
///                     re-striped from survivors); store_restore
///                     re-declares the store at its old capacity
///
/// Targets are plain strings: node ids, pilot uids, "zoneA|zoneB" link
/// pairs, store zone names. The arm_* helpers enumerate a cluster's
/// nodes in order; the other kinds are armed with
/// `injector().arm(kind, targets, schedule)`.

#include <map>
#include <string>
#include <vector>

#include "ripple/common/logging.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace ripple::platform {
class Node;
}

namespace ripple::core {

class Session;

class FailureCoordinator {
 public:
  explicit FailureCoordinator(Session& session);

  FailureCoordinator(const FailureCoordinator&) = delete;
  FailureCoordinator& operator=(const FailureCoordinator&) = delete;

  /// The underlying injector, for arm()/inject_at()/event_log access.
  [[nodiscard]] sim::FailureInjector& injector() noexcept {
    return injector_;
  }

  // --- arming helpers (targets enumerated in sorted order) ---

  /// Random node crashes across every node of `cluster`; crashed nodes
  /// rejoin after Schedule::mean_time_to_repair when it is positive.
  void arm_node_crashes(const std::string& cluster,
                        sim::FailureInjector::Schedule schedule);

  /// Random stragglers: nodes slow down by Schedule::magnitude (a
  /// duration multiplier > 1) and return to normal speed after the
  /// repair interval.
  void arm_slow_nodes(const std::string& cluster,
                      sim::FailureInjector::Schedule schedule);

 private:
  void on_node_crash(const std::string& node_id);
  void on_node_restore(const std::string& node_id);
  void on_pilot_preempt(const std::string& pilot_uid);
  void on_slow_node(const std::string& node_id, double magnitude);
  void on_node_normal(const std::string& node_id);
  void on_link_down(const std::string& pair);
  void on_link_up(const std::string& pair);
  void on_store_crash(const std::string& zone);
  void on_store_restore(const std::string& zone);

  /// Emits a fault/repair instant span ("fault" category) and ticks
  /// the "fault.injected" / "fault.repaired" counters. No-op while
  /// tracing is disabled.
  void trace_fault(const char* name, const std::string& target,
                   bool repair);

  /// Node lookup across every cluster; nullptr when unknown.
  [[nodiscard]] platform::Node* find_node(const std::string& node_id);

  /// Pilot uids (sorted) whose reservation contains `node`.
  [[nodiscard]] std::vector<std::string> pilots_of(
      const platform::Node& node) const;

  Session& session_;
  sim::FailureInjector injector_;
  common::Logger log_;
  /// Capacity of crashed stores, so store_restore can re-declare them.
  std::map<std::string, double> failed_store_capacity_;
};

}  // namespace ripple::core
