// Scheduler replay: the workload's pre-run request batch driven through
// core::Scheduler's public submit_all/release on a standalone pilot,
// the way bench/micro_scheduler.cpp drives it. A locality oracle is
// installed because every Session installs one, which selects the
// data-aware backfill pass; that pass re-probes the whole wait queue
// on every release, so its cost grows faster than the queue.

#include <chrono>
#include <deque>
#include <memory>

#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/platform/cluster.hpp"
#include "workloads.hpp"

namespace perf {

ReplayResult replay_scheduler(const WorkloadPlan& plan, std::uint64_t seed) {
  ReplayResult result;
  if (plan.replay.empty()) return result;

  using Clock = std::chrono::steady_clock;
  core::Runtime runtime(seed);
  platform::Cluster cluster(runtime.loop(), runtime.network(),
                            plan.replay_profile,
                            runtime.rng().fork("cluster"));
  core::Scheduler scheduler(runtime);
  scheduler.set_locality_oracle(
      [](const std::vector<std::string>&, const std::string&) { return 0.0; });
  core::PilotDescription desc;
  desc.platform = plan.replay_profile.name;
  desc.nodes = plan.replay_profile.max_nodes;
  core::Pilot pilot("pilot.replay", desc, &cluster);
  pilot.nodes() = cluster.reserve_nodes(desc.nodes);
  scheduler.add_pilot(pilot);

  std::deque<platform::Slot> granted;
  std::vector<core::ScheduleRequest> requests;
  requests.reserve(plan.replay.size());
  for (std::size_t i = 0; i < plan.replay.size(); ++i) {
    const ReplayRequest& spec = plan.replay[i];
    core::ScheduleRequest request;
    request.uid = "replay." + std::to_string(i);
    request.cores = spec.cores;
    request.gpus = spec.gpus;
    request.mem_gb = spec.mem_gb;
    request.priority = spec.priority;
    request.granted = [&granted](platform::Slot slot, platform::Node*) {
      granted.push_back(std::move(slot));
    };
    requests.push_back(std::move(request));
  }

  const auto submit_start = Clock::now();
  scheduler.submit_all(pilot.uid(), std::move(requests));
  result.submit_us =
      std::chrono::duration<double, std::micro>(Clock::now() - submit_start)
          .count();
  runtime.loop().run();

  Clock::duration releasing{};
  while (!granted.empty()) {
    const platform::Slot slot = std::move(granted.front());
    granted.pop_front();
    const auto start = Clock::now();
    scheduler.release(pilot.uid(), slot);
    releasing += Clock::now() - start;
    runtime.loop().run();
  }
  result.release_us =
      std::chrono::duration<double, std::micro>(releasing).count();
  result.grants = scheduler.granted_total();
  return result;
}

}  // namespace perf
