#pragma once

/// \file states.hpp
/// Entity state machines for pilots, tasks and service tasks.
///
/// The task model follows RADICAL-Pilot's stateful execution paradigm;
/// the service model adds the bootstrap sub-states this paper introduces
/// (LAUNCHING -> INITIALIZING -> PUBLISHING -> RUNNING), from which the
/// Fig. 3 bootstrap-time decomposition is derived. Transition legality is
/// enforced centrally so a bug in any manager surfaces immediately.

#include <cstddef>
#include <string>

namespace ripple::core {

enum class TaskState {
  created,         ///< description accepted, uid assigned
  waiting,         ///< blocked on task dependencies or service readiness
  staging_input,   ///< input staging in progress
  scheduling,      ///< queued at the scheduler
  scheduled,       ///< slot assigned on a node
  launching,       ///< process launch in progress
  running,         ///< payload executing
  staging_output,  ///< output staging in progress
  done,            ///< terminal: success
  failed,          ///< terminal: error
  canceled,        ///< terminal: canceled by the user
};

enum class ServiceState {
  created,       ///< description accepted
  scheduling,    ///< queued at the scheduler
  scheduled,     ///< slot assigned
  launching,     ///< service executable starting on target resources
  initializing,  ///< model loading / program initialization
  publishing,    ///< endpoint publication to the service registry
  running,       ///< ready: accepting client requests
  draining,      ///< stop requested; finishing outstanding requests
  stopped,       ///< terminal: clean shutdown
  failed,        ///< terminal: crash or liveness failure
  canceled,      ///< terminal: canceled before running
};

enum class PilotState {
  created,   ///< description accepted
  active,    ///< resources acquired, agent running
  done,      ///< terminal: closed by Session::close_pilot
  failed,    ///< terminal
  canceled,  ///< terminal
};

/// Number of states in each machine; the enums are dense from zero.
inline constexpr std::size_t kTaskStates =
    static_cast<std::size_t>(TaskState::canceled) + 1;
inline constexpr std::size_t kServiceStates =
    static_cast<std::size_t>(ServiceState::canceled) + 1;
inline constexpr std::size_t kPilotStates =
    static_cast<std::size_t>(PilotState::canceled) + 1;

[[nodiscard]] const char* to_string(TaskState state) noexcept;
[[nodiscard]] const char* to_string(ServiceState state) noexcept;
[[nodiscard]] const char* to_string(PilotState state) noexcept;

[[nodiscard]] bool is_terminal(TaskState state) noexcept;
[[nodiscard]] bool is_terminal(ServiceState state) noexcept;
[[nodiscard]] bool is_terminal(PilotState state) noexcept;

/// Legal state-machine moves. Any state may move to failed/canceled
/// unless already terminal.
[[nodiscard]] bool transition_allowed(TaskState from, TaskState to) noexcept;
[[nodiscard]] bool transition_allowed(ServiceState from,
                                      ServiceState to) noexcept;
[[nodiscard]] bool transition_allowed(PilotState from, PilotState to) noexcept;

}  // namespace ripple::core
