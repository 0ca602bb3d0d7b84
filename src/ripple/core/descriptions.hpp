#pragma once

/// \file descriptions.hpp
/// User-facing descriptions of pilots, tasks and service tasks.
///
/// These mirror RADICAL-Pilot's PilotDescription/TaskDescription plus
/// the ServiceDescription this paper adds. Descriptions are plain value
/// types validated on submission; the runtime owns the corresponding
/// stateful entities (Pilot, Task, Service).

#include <cstddef>
#include <string>
#include <vector>

#include "ripple/common/json.hpp"
#include "ripple/common/random.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::core {

/// Data staging directive attached to a task.
struct StagingDirective {
  enum class Action { stage_in, stage_out };
  Action action = Action::stage_in;
  std::string dataset;  ///< name registered with the DataManager

  /// stage_out only: destination zone for the produced dataset. Empty
  /// means "leave it in the pilot's zone" (registration, no transfer).
  std::string zone;

  [[nodiscard]] static StagingDirective in(std::string dataset_name) {
    return StagingDirective{Action::stage_in, std::move(dataset_name), ""};
  }
  [[nodiscard]] static StagingDirective out(std::string dataset_name,
                                            std::string dst_zone = "") {
    return StagingDirective{Action::stage_out, std::move(dataset_name),
                            std::move(dst_zone)};
  }
};

struct PilotDescription {
  std::string platform;        ///< profile/cluster name ("delta")
  std::size_t nodes = 1;

  /// Throws invalid_argument when malformed.
  void validate() const;
};

struct TaskDescription {
  std::string name = "task";

  /// Payload kind, resolved through the session's PayloadRegistry.
  /// Built-ins: "modeled" (sleeps for `duration`), "function" (runs a
  /// registered C++ callable). The ml module adds "inference_client".
  std::string kind = "modeled";

  /// Kind-specific configuration passed to the payload factory.
  json::Value payload = json::Value::object();

  std::size_t cores = 1;
  std::size_t gpus = 0;
  double mem_gb = 0.0;

  /// Execution-time model for "modeled" payloads.
  common::Distribution duration = common::Distribution::constant(1.0);

  /// Uids of tasks that must reach DONE first.
  std::vector<std::string> depends_on;

  /// Uids of services that must be RUNNING first (readiness relation,
  /// section III: "services often have to be started before any
  /// computing task").
  std::vector<std::string> requires_services;

  std::vector<StagingDirective> staging;

  /// Scheduling priority; higher runs earlier. Services default higher.
  int priority = 0;

  /// Tenant id for multi-tenant runs: threads through to the
  /// scheduler's fair-share arbitration, the catalog's per-tenant
  /// pins/quotas, and the transfer engine's weighted links. Empty
  /// (default) keeps the single-tenant behavior.
  std::string tenant;

  void validate() const;
};

struct ServiceDescription {
  std::string name = "service";

  /// Service program factory name (session ProgramRegistry). The ml
  /// module registers "inference"; tests register synthetic programs.
  std::string program = "inference";

  /// Program-specific configuration, e.g. {"model": "llama-8b"}.
  json::Value config = json::Value::object();

  std::size_t cores = 1;
  std::size_t gpus = 1;
  double mem_gb = 0.0;

  /// Abort bootstrap if the service is not RUNNING within this window.
  sim::Duration ready_timeout = 900.0;

  /// Liveness monitoring. When enabled, the running service sends
  /// periodic heartbeats to the ServiceManager, which declares the
  /// service FAILED after `heartbeat_misses` consecutive silent
  /// periods. Off by default: the recurring timers keep the event loop
  /// alive until the service is stopped.
  bool monitor = false;
  sim::Duration heartbeat_interval = 30.0;
  int heartbeat_misses = 3;

  /// Scheduling priority; defaults above tasks so services launch first.
  int priority = 100;

  /// Restart policy after liveness failure.
  bool restart_on_failure = false;
  int max_restarts = 1;

  /// Tenant id for multi-tenant runs (see TaskDescription::tenant).
  std::string tenant;

  void validate() const;
};

}  // namespace ripple::core
