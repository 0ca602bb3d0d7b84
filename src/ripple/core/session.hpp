#pragma once

/// \file session.hpp
/// The Session: Ripple's top-level, unified public API.
///
/// Mirrors the paper's execution model (Fig. 2): users submit
/// ServiceDescriptions and TaskDescriptions through one API (1); the
/// Scheduler places them (2); the Executor runs them (3); services
/// expose their APIs (4) over model capabilities (5); state information
/// flows back over dedicated channels (6). A Session owns the Runtime,
/// the platforms (clusters), the managers and all entities.
///
/// Typical use:
///   core::Session session({.seed = 7});
///   auto& delta = session.add_platform(platform::delta_profile());
///   auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
///   ml::install(session);                       // ML payloads/programs
///   auto svc = session.services().submit(pilot, svc_desc);
///   session.services().when_ready({svc}, [&](bool) { ... submit tasks; });
///   session.run();                              // drive to completion

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ripple/core/data_manager.hpp"
#include "ripple/core/executor.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/core/service_manager.hpp"
#include "ripple/core/task_manager.hpp"
#include "ripple/platform/cluster.hpp"
#include "ripple/platform/profiles.hpp"

namespace ripple::core {

class FailureCoordinator;

struct SessionConfig {
  std::uint64_t seed = 42;
  SchedulerPolicy scheduler_policy = SchedulerPolicy::backfill;
  /// Enables runtime-wide span tracing + counters at construction
  /// (equivalent to calling enable_tracing()). Off by default.
  bool tracing = false;
  /// Sim-time interval between counter/gauge snapshots when tracing.
  double gauge_tick = 1.0;
};

class Session {
 public:
  explicit Session(SessionConfig config = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- platforms and pilots ---

  /// Instantiates a platform from a profile; wires network links to all
  /// previously added platforms.
  platform::Cluster& add_platform(const platform::PlatformProfile& profile);

  [[nodiscard]] platform::Cluster& cluster(const std::string& name);
  [[nodiscard]] bool has_cluster(const std::string& name) const;

  /// Acquires `desc.nodes` nodes on the named platform; the pilot
  /// becomes ACTIVE asynchronously. Returns the pilot.
  Pilot& submit_pilot(const PilotDescription& desc);

  [[nodiscard]] Pilot& pilot(const std::string& uid);
  [[nodiscard]] std::vector<std::string> pilot_uids() const;

  /// Ends a pilot: releases its nodes back to the cluster.
  void close_pilot(const std::string& uid);

  /// The pilot was lost (spot preemption, allocation kill): its
  /// scheduler entry is removed, nodes returned, state set to FAILED,
  /// and every bound task re-bound to a surviving pilot (or failed when
  /// none fits). Tolerant of already-terminal pilots (no-op).
  void fail_pilot(const std::string& uid);

  /// Platform names in deterministic (sorted) order.
  [[nodiscard]] std::vector<std::string> cluster_names() const;

  // --- multi-tenancy --------------------------------------------------------

  /// Registers (or updates) `tenant`'s fair-share weight, in both the
  /// scheduler (DRF-style dominant-share arbitration between queued
  /// requests) and the transfer engine (weighted link bandwidth
  /// shares). Registering the first weight switches the scheduler's
  /// backfill pass to fair-share ordering; sessions that never call
  /// this keep the exact single-tenant behavior.
  void set_tenant_weight(const std::string& tenant, double weight);

  /// Caps the bytes `tenant` may hold (resident + reserved) in
  /// `zone`'s store. Over-quota reservations fail without evicting
  /// anyone else's data.
  void set_tenant_store_quota(const std::string& zone,
                              const std::string& tenant, double bytes);

  /// Caps `tenant`'s concurrently in-flight bytes per network link;
  /// excess transfers queue behind the cap (they are never dropped,
  /// and a tenant with nothing in flight is always admitted).
  void set_tenant_link_quota(const std::string& tenant, double bytes);

  // --- components ---

  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] sim::EventLoop& loop() noexcept { return runtime_.loop(); }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] Executor& executor() noexcept { return *executor_; }
  [[nodiscard]] DataManager& data() noexcept { return *data_; }
  [[nodiscard]] ServiceManager& services() noexcept { return *services_; }
  [[nodiscard]] TaskManager& tasks() noexcept { return *tasks_; }
  /// Seeded fault injection wired into this session's runtime.
  [[nodiscard]] FailureCoordinator& failures() noexcept { return *failures_; }
  [[nodiscard]] metrics::Registry& metrics() noexcept {
    return runtime_.metrics();
  }
  [[nodiscard]] metrics::Timeline& timeline() noexcept {
    return runtime_.timeline();
  }
  [[nodiscard]] metrics::Tracer& tracer() noexcept {
    return runtime_.tracer();
  }
  [[nodiscard]] metrics::Counters& counters() noexcept {
    return runtime_.counters();
  }

  /// Turns on span tracing and counter sampling for this session:
  /// enables the Tracer and Counters, registers the standard gauges
  /// (event-loop depth/events, scheduler waitqueue length, live
  /// transfers, store occupancy) and arms the sampling tick. Idempotent.
  void enable_tracing(double gauge_tick = 1.0);

  // --- driving the run ---

  /// Runs the event loop until no events remain. Returns events
  /// processed. Services with monitoring enabled must be stopped for
  /// the loop to drain (use services().stop_all()).
  std::size_t run();

  /// Runs until simulation time `deadline`.
  std::size_t run_until(sim::SimTime deadline);

  /// Current simulation time.
  [[nodiscard]] sim::SimTime now() const noexcept;

  /// Aggregate counters (entities by state, messages, events, ...).
  [[nodiscard]] json::Value summary() const;

 private:
  struct PilotEntry {
    std::unique_ptr<Pilot> pilot;
    metrics::Timeline::EntityId timeline = 0;  ///< Runtime::add_entity's id
  };

  [[nodiscard]] PilotEntry& pilot_entry(const std::string& uid);

  SessionConfig config_;
  Runtime runtime_;
  std::map<std::string, std::unique_ptr<platform::Cluster>> clusters_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<DataManager> data_;
  std::unique_ptr<ServiceManager> services_;
  std::unique_ptr<TaskManager> tasks_;
  std::unique_ptr<FailureCoordinator> failures_;
  std::map<std::string, PilotEntry> pilots_;
  common::Logger log_;
};

}  // namespace ripple::core
