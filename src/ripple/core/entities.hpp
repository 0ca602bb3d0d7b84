#pragma once

/// \file entities.hpp
/// Stateful runtime entities: Pilot, Task, Service.
///
/// Entities are owned by their managers; user code refers to them by uid
/// and reads them through const accessors. State changes go through
/// set_state(), which validates the transition and keeps the first time
/// the entity entered each state. The managers report every transition,
/// re-entries included, to the metrics Timeline
/// (core::Runtime::publish_state).

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "ripple/core/descriptions.hpp"
#include "ripple/core/states.hpp"
#include "ripple/platform/node.hpp"

namespace ripple::platform {
class Cluster;
}

namespace ripple::core {

/// The first time an entity entered each state of its machine, in a
/// fixed array indexed by the state; -1 for a state never entered.
template <typename State, std::size_t N>
class StateTimes {
 public:
  StateTimes() { times_.fill(-1.0); }

  /// Keeps `now` unless `state` was entered before.
  void enter(State state, double now) {
    double& time = times_[static_cast<std::size_t>(state)];
    if (time < 0.0) time = now;
  }

  [[nodiscard]] double operator[](State state) const {
    return times_[static_cast<std::size_t>(state)];
  }

 private:
  std::array<double, N> times_;
};

/// Bootstrap-time decomposition of one service instance (Fig. 3).
struct BootstrapTiming {
  double launch = -1.0;
  double init = -1.0;
  double publish = -1.0;

  [[nodiscard]] bool complete() const noexcept {
    return launch >= 0 && init >= 0 && publish >= 0;
  }
  [[nodiscard]] double total() const noexcept {
    return launch + init + publish;
  }
};

class Pilot {
 public:
  Pilot(std::string uid, PilotDescription desc, platform::Cluster* cluster);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const PilotDescription& description() const noexcept {
    return desc_;
  }
  [[nodiscard]] PilotState state() const noexcept { return state_; }
  [[nodiscard]] platform::Cluster& cluster() const noexcept {
    return *cluster_;
  }
  [[nodiscard]] const std::vector<platform::Node*>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<platform::Node*>& nodes() noexcept {
    return nodes_;
  }

  /// Validates and applies a state transition; records `now`.
  void set_state(PilotState next, double now);

  [[nodiscard]] double state_time(PilotState state) const {
    return timestamps_[state];
  }

 private:
  std::string uid_;
  PilotDescription desc_;
  platform::Cluster* cluster_;
  std::vector<platform::Node*> nodes_;
  PilotState state_ = PilotState::created;
  StateTimes<PilotState, kPilotStates> timestamps_;
};

class Task {
 public:
  Task(std::string uid, TaskDescription desc);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const TaskDescription& description() const noexcept {
    return desc_;
  }
  [[nodiscard]] TaskState state() const noexcept { return state_; }

  void set_state(TaskState next, double now);

  /// First time this task entered `state`; -1 when never.
  [[nodiscard]] double state_time(TaskState state) const {
    return timestamps_[state];
  }

  /// Time between first entries of two visited states.
  [[nodiscard]] double duration(TaskState from, TaskState to) const;

  [[nodiscard]] const std::string& pilot_uid() const noexcept {
    return pilot_uid_;
  }
  void set_pilot_uid(std::string uid) { pilot_uid_ = std::move(uid); }

  [[nodiscard]] const platform::Slot& slot() const noexcept { return slot_; }
  void set_slot(platform::Slot slot) { slot_ = std::move(slot); }

  [[nodiscard]] const json::Value& result() const noexcept { return result_; }
  void set_result(json::Value result) { result_ = std::move(result); }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  void set_error(std::string error) { error_ = std::move(error); }

 private:
  std::string uid_;
  TaskDescription desc_;
  TaskState state_ = TaskState::created;
  StateTimes<TaskState, kTaskStates> timestamps_;
  std::string pilot_uid_;
  platform::Slot slot_;
  json::Value result_;
  std::string error_;
};

class Service {
 public:
  Service(std::string uid, ServiceDescription desc);

  [[nodiscard]] const std::string& uid() const noexcept { return uid_; }
  [[nodiscard]] const ServiceDescription& description() const noexcept {
    return desc_;
  }
  [[nodiscard]] ServiceState state() const noexcept { return state_; }

  void set_state(ServiceState next, double now);

  [[nodiscard]] double state_time(ServiceState state) const {
    return timestamps_[state];
  }
  [[nodiscard]] double duration(ServiceState from, ServiceState to) const;

  /// RPC address clients use once RUNNING ("svc.000002").
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  void set_endpoint(std::string endpoint) { endpoint_ = std::move(endpoint); }

  [[nodiscard]] const std::string& pilot_uid() const noexcept {
    return pilot_uid_;
  }
  void set_pilot_uid(std::string uid) { pilot_uid_ = std::move(uid); }

  [[nodiscard]] const platform::Slot& slot() const noexcept { return slot_; }
  void set_slot(platform::Slot slot) { slot_ = std::move(slot); }

  [[nodiscard]] bool remote() const noexcept { return remote_; }
  void set_remote(bool remote) { remote_ = remote; }

  [[nodiscard]] const BootstrapTiming& bootstrap() const noexcept {
    return bootstrap_;
  }
  [[nodiscard]] BootstrapTiming& bootstrap() noexcept { return bootstrap_; }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  void set_error(std::string error) { error_ = std::move(error); }

  [[nodiscard]] double last_heartbeat() const noexcept {
    return last_heartbeat_;
  }
  void set_last_heartbeat(double t) noexcept { last_heartbeat_ = t; }

  [[nodiscard]] int restarts() const noexcept { return restarts_; }
  void count_restart() noexcept { ++restarts_; }

 private:
  std::string uid_;
  ServiceDescription desc_;
  ServiceState state_ = ServiceState::created;
  StateTimes<ServiceState, kServiceStates> timestamps_;
  std::string endpoint_;
  std::string pilot_uid_;
  platform::Slot slot_;
  bool remote_ = false;
  BootstrapTiming bootstrap_;
  std::string error_;
  double last_heartbeat_ = -1.0;
  int restarts_ = 0;
};

}  // namespace ripple::core
