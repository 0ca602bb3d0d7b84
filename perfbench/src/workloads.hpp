#pragma once

/// \file workloads.hpp
/// The benchmark's three seeded workloads. Each plan is generated from
/// the workload seed alone, before any timing starts; the program only
/// ever sees the generated descriptions.
///
///  - campaign: 7200 heterogeneous modeled tasks in one submit_all on a
///    128-node Delta pilot, with seeded node crashes (restart budget 3)
///    and slow nodes (speculation on). Batch loop; unit = task.
///  - dataflow: 3 tenants (weights 2:1:1) submit diamond wf::Graphs on
///    an open-loop arrival schedule in simulated time over a shared
///    corpus, on Delta + Frontier pilots with finite stores. Unit =
///    graph, latency from the scheduled arrival.
///  - serving: closed-loop inference clients against an autoscaled
///    llama-8b group on Delta and persistent llama-8b services on R3.
///    Unit = request, latency = RT.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ripple/platform/profiles.hpp"

namespace perf {

/// One slot request of the workload's pre-run scheduler batch, replayed
/// through a standalone core::Scheduler (see replay.cpp).
struct ReplayRequest {
  std::size_t cores = 1;
  std::size_t gpus = 0;
  double mem_gb = 0.0;
  int priority = 0;
};

struct WorkloadPlan {
  std::string name;
  std::string unit;  ///< what one attempted unit is
  WorkloadFactory factory;
  /// Requests the workload hands the scheduler in one batch before
  /// Session::run() (empty when it submits only during the run).
  std::vector<ReplayRequest> replay;
  platform::PlatformProfile replay_profile;
};

[[nodiscard]] WorkloadPlan plan_campaign(std::uint64_t seed);
[[nodiscard]] WorkloadPlan plan_dataflow(std::uint64_t seed);
[[nodiscard]] WorkloadPlan plan_serving(std::uint64_t seed);

struct ReplayResult {
  double submit_us = 0.0;   ///< host time of the one submit_all
  double release_us = 0.0;  ///< host time summed over every release
  std::uint64_t grants = 0;
};

/// Replays `plan.replay` through Scheduler::submit_all and then one
/// release per grant (oldest grant first) on a standalone pilot of
/// `plan.replay_profile`, with a locality oracle installed so the
/// passes are the data-aware ones a Session selects.
[[nodiscard]] ReplayResult replay_scheduler(const WorkloadPlan& plan,
                                            std::uint64_t seed);

}  // namespace perf
