#pragma once

/// \file scheduler_request.hpp
/// The slot-request type shared by the scheduler and its wait queue.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ripple/platform/node.hpp"

namespace ripple::core {

enum class SchedulerPolicy { fifo, backfill };

/// A slot request from either manager.
struct ScheduleRequest {
  /// Task/service uid: folded into the grant fingerprint and named in
  /// errors. Cancel goes by the ticket submit returns, not by uid.
  std::string uid;
  std::size_t cores = 1;
  std::size_t gpus = 0;
  double mem_gb = 0.0;
  int priority = 0;

  /// Tenant (concurrent session/workflow) the request belongs to.
  /// Empty — the single-tenant default — opts out of fair-share
  /// arbitration and per-tenant accounting entirely.
  std::string tenant;

  /// Input-dataset footprint (locality-aware placement): the datasets
  /// the request reads and the bytes that must still move into the
  /// target pilot's zone at submission time. The data plane's
  /// PlacementAdvisor ranks candidate pilots by this before the request
  /// is bound to one, and a data-aware backfill pass (see
  /// Scheduler::set_locality_oracle) prefers requests whose
  /// `input_datasets` are already resident — the oracle re-resolves
  /// residency live, so `input_bytes` stays the submission-time
  /// snapshot used for telemetry.
  std::vector<std::string> input_datasets;
  double input_bytes = 0.0;

  /// Fired (asynchronously) with the placement when granted.
  std::function<void(platform::Slot, platform::Node*)> granted;
};

}  // namespace ripple::core
