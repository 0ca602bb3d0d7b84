#pragma once

/// \file service_manager.hpp
/// The ServiceManager: the paper's central architectural addition.
///
/// Manages service tasks through their full lifecycle — scheduling,
/// launch, program initialization (model load), endpoint publication,
/// readiness, liveness (heartbeats), draining and termination — while
/// services remain schedulable units next to regular tasks. Also hosts
/// the per-cluster service registry endpoint the services publish to
/// (the `publish` component of Fig. 3's bootstrap decomposition).
///
/// Deployment modes:
///  * local    — bootstrapped inside a pilot (submit()), BT recorded;
///  * remote   — persistent services on another platform
///               (register_remote()), no bootstrap, RUNNING immediately
///               after program init (paper: "remote models are usually
///               persistent ... and do not need to be bootstrapped").
///
/// Endpoint registry events: every transition into and out of RUNNING is
/// published on the pub/sub topic "endpoints" as {name, uid, endpoint,
/// up}. Load-balancing clients and the ml::Autoscaler subscribe to it to
/// reroute traffic as replicas come and go — the paper's planned
/// "dynamically rerouting requests to less used service instances".

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ripple/core/descriptions.hpp"
#include "ripple/core/entities.hpp"
#include "ripple/core/entity_table.hpp"
#include "ripple/core/executor.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"

namespace ripple::core {

class ServiceManager {
 public:
  ServiceManager(Runtime& runtime, Scheduler& scheduler, Executor& executor);

  /// Submits a local service into `pilot`; returns its uid.
  std::string submit(Pilot& pilot, ServiceDescription desc);

  /// Submits a batch of local services; returns uids in order. The
  /// whole batch enters the scheduler through one submit_all pass:
  /// priorities are enacted across the batch and the pilot's queue is
  /// scanned once instead of N times.
  std::vector<std::string> submit_all(Pilot& pilot,
                                      std::vector<ServiceDescription> descs);

  /// Registers a persistent remote service on `cluster` (placed on node
  /// `node_index`); returns its uid. The service enters RUNNING as soon
  /// as its program initializes (set config {"preloaded": true} for
  /// instant readiness).
  std::string register_remote(platform::Cluster& cluster,
                              ServiceDescription desc,
                              std::size_t node_index = 0);

  [[nodiscard]] const Service& get(const std::string& uid) const {
    return services_.at(uid).service;
  }
  [[nodiscard]] bool exists(const std::string& uid) const {
    return services_.exists(uid);
  }
  [[nodiscard]] std::vector<std::string> uids() const {
    return services_.uids();
  }

  /// RPC endpoints of RUNNING services, optionally filtered by
  /// description name.
  [[nodiscard]] std::vector<std::string> endpoints(
      const std::string& name_filter = "") const;

  /// Uids of RUNNING services, optionally filtered by name.
  [[nodiscard]] std::vector<std::string> running(
      const std::string& name_filter = "") const;

  [[nodiscard]] std::size_t count_in_state(ServiceState state) const {
    return services_.count_in_state(state);
  }

  /// Services (optionally name-filtered) that are not yet terminal —
  /// the replica count an autoscaler must reason about, since
  /// bootstrapping replicas are capacity already committed.
  [[nodiscard]] std::size_t count_active(
      const std::string& name_filter = "") const;

  /// Sum of outstanding (queued + executing) requests across RUNNING
  /// services, optionally name-filtered. The autoscaler's queue-depth
  /// signal.
  [[nodiscard]] std::size_t total_outstanding(
      const std::string& name_filter = "") const;

  /// Outstanding (queued + executing) requests of one service; 0 once
  /// its program is gone. Drives least-loaded scale-down victims.
  [[nodiscard]] std::size_t outstanding_of(const std::string& uid) const;

  /// Exact windowed q-quantile of request latency pooled across RUNNING
  /// services (name-filtered): merges every matching program's live
  /// window samples (ServiceProgram::collect_window_latencies) and
  /// interpolates over the merged set, so the group p95 weights busy
  /// replicas by their traffic instead of averaging per-replica
  /// quantiles. Negative when no service reported a sample — the SLO
  /// autoscaler reads that as full headroom.
  [[nodiscard]] double window_latency_quantile(
      const std::string& name_filter, double q) const;

  /// Fires cb(true) once all `uids` are RUNNING, cb(false) as soon as
  /// any of them reaches a terminal state first.
  void when_ready(std::vector<std::string> uids,
                  std::function<void(bool ok)> on_ready);

  /// Graceful stop: drains outstanding requests, then unbinds and
  /// releases resources. `on_stopped` may be null.
  void stop(const std::string& uid, std::function<void()> on_stopped = {});

  /// Stops every non-terminal service; `on_all_stopped` may be null.
  void stop_all(std::function<void()> on_all_stopped = {});

  /// Fault injection: hard-crash a running service (endpoint vanishes,
  /// heartbeats cease). Liveness monitoring, if enabled, will detect it.
  void kill(const std::string& uid);

  /// The live program object of a service (nullptr once stopped/failed).
  [[nodiscard]] ServiceProgram* program(const std::string& uid);

  /// Per-service stats: state, endpoint, bootstrap timing, program stats.
  [[nodiscard]] json::Value stats(const std::string& uid) const;

  /// Installs the callback run at every service transition, before the
  /// transition is reported: the TaskManager's re-check trigger.
  void set_transition_listener(std::function<void()> listener) {
    transition_listener_ = std::move(listener);
  }

 private:
  struct Active {
    Active(std::string uid, ServiceDescription desc)
        : service(std::move(uid), std::move(desc)) {}
    [[nodiscard]] const std::string& uid() const { return service.uid(); }
    [[nodiscard]] ServiceState state() const { return service.state(); }

    Service service;
    metrics::Timeline::EntityId timeline = 0;
    Pilot* pilot = nullptr;  ///< null for remote services
    platform::Cluster* cluster = nullptr;
    /// The request queued for a slot, until its grant arrives.
    std::optional<Scheduler::Ticket> ticket;
    std::unique_ptr<ExecutionContext> ctx;
    std::unique_ptr<ServiceProgram> program;
    std::unique_ptr<msg::RpcServer> server;
    std::unique_ptr<msg::RpcClient> pub_client;
    std::unique_ptr<msg::RpcClient> hb_client;
    sim::EventLoop::TimerHandle ready_timer;
    sim::EventLoop::TimerHandle hb_send_timer;
    sim::EventLoop::TimerHandle hb_deadline_timer;
    sim::HostId host;
    std::size_t cohort_at_launch = 0;
    bool slot_held = false;
    bool crashed = false;
  };

  struct ReadyWatcher {
    std::vector<std::string> uids;
    std::function<void(bool)> on_ready;
  };

  /// Validates a description and registers the service (ready timer
  /// armed); the caller decides when scheduling starts.
  std::string create_service(Pilot& pilot, ServiceDescription desc);
  [[nodiscard]] ScheduleRequest make_request(const std::string& uid,
                                             Active& active);

  // Bootstrap pipeline.
  /// Moves a service that fits its pilot to SCHEDULING (failing one that
  /// cannot fit); true when its request should go to the scheduler.
  bool enter_scheduling(const std::string& uid, Active& active);
  void begin_scheduling(const std::string& uid);
  void begin_scheduling_batch(Pilot& pilot,
                              const std::vector<std::string>& uids);
  void on_granted(const std::string& uid, platform::Slot slot,
                  platform::Node* node);
  void on_launched(const std::string& uid);
  void on_initialized(const std::string& uid);
  void do_publish(const std::string& uid);
  void on_published(const std::string& uid);

  void fail_service(const std::string& uid, const std::string& error);
  /// Cancels the service's queued request, if it has one.
  void drop_request(Active& active);
  void release_resources(Active& active);
  void set_state(Active& active, ServiceState state);
  void recheck_watchers();

  /// Publishes an endpoint up/down event on the "endpoints" topic.
  void publish_endpoint_event(const Active& active, bool up);

  // Liveness.
  void start_monitoring(const std::string& uid);
  void schedule_heartbeat(const std::string& uid);
  void arm_liveness_deadline(const std::string& uid);
  void on_liveness_timeout(const std::string& uid);

  void finalize_stop(const std::string& uid,
                     std::function<void()> on_stopped);

  /// Creates (once per cluster) the registry RPC endpoint on the
  /// cluster's head node.
  void ensure_registry(platform::Cluster& cluster);

  /// Registers a new record with the Timeline; returns it.
  Active& add(std::string uid, ServiceDescription desc);
  [[nodiscard]] std::size_t count_bootstrapping(
      const std::string& pilot_uid) const;
  [[nodiscard]] json::Value contention_config(const Active& active) const;

  Runtime& runtime_;
  Scheduler& scheduler_;
  Executor& executor_;
  common::Rng rng_;
  common::Logger log_;
  EntityTable<Active> services_{"service"};
  std::map<std::string, std::unique_ptr<msg::RpcServer>> registries_;
  std::vector<ReadyWatcher> watchers_;
  std::function<void()> transition_listener_;
};

}  // namespace ripple::core
