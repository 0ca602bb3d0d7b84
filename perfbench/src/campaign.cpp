// campaign: a batch HPC campaign, the task half of the paper.
//
// 7200 heterogeneous modeled tasks enter one TaskManager::submit_all at
// t=0 on a 128-node Delta pilot. The scheduler's backfill pass,
// platform::CapacityIndex, the task state machine and failure recovery
// do almost all the host work over a wait queue thousands deep; data,
// ml and wf do none, so a scheduler or recovery change shows here and
// nowhere else.

#include <algorithm>
#include <memory>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

constexpr std::size_t kNodes = 128;
constexpr int kPriorities = 4;
/// Lognormal task durations (simulated seconds), clamped to
/// [kMinDuration, kMaxDuration] and then scaled so every priority class
/// carries exactly a quarter of kTotalCoreSeconds whatever the seed.
constexpr double kDurationMedian = 30.0;
constexpr double kDurationSigma = 0.8;
constexpr double kMinDuration = 1.0;
constexpr double kMaxDuration = 120.0;
constexpr double kTotalCoreSeconds = 3.24e6;

struct CampaignInputs {
  std::vector<core::TaskDescription> tasks;
  sim::FailureInjector::Schedule crashes;
  sim::FailureInjector::Schedule slow_nodes;
};

struct Shape {
  std::size_t cores = 1;
  std::size_t gpus = 0;
  std::size_t count = 0;  ///< tasks of this shape per priority class
};

/// The task mix: 60% small CPU (1-8 cores), 20% wide CPU (16-64 cores)
/// and 20% GPU (1-4 GPUs, 4 cores each), every size equally often in
/// every priority class: 7200 tasks. The seed only draws durations and
/// shuffles the submission order.
constexpr Shape kShapes[] = {
    {1, 0, 270},  {2, 0, 270},  {4, 0, 270},  {8, 0, 270},
    {16, 0, 120}, {32, 0, 120}, {64, 0, 120},
    {4, 1, 120},  {8, 2, 120},  {16, 4, 120},
};

/// Durations are drawn here and handed to the runtime as constants, so
/// the program sees only the generated descriptions.
std::shared_ptr<const CampaignInputs> generate(std::uint64_t seed) {
  common::Rng rng = common::Rng(seed).fork("campaign.inputs");
  auto inputs = std::make_shared<CampaignInputs>();
  for (int priority = 0; priority < kPriorities; ++priority) {
    const std::size_t first = inputs->tasks.size();
    double work = 0.0;
    for (const Shape& shape : kShapes) {
      for (std::size_t i = 0; i < shape.count; ++i) {
        core::TaskDescription task;
        task.name = "campaign";
        task.kind = "modeled";
        task.cores = shape.cores;
        task.gpus = shape.gpus;
        task.mem_gb = 2.0 * static_cast<double>(task.cores);
        task.priority = priority;
        const double seconds =
            std::clamp(rng.lognormal(kDurationMedian, kDurationSigma),
                       kMinDuration, kMaxDuration);
        task.duration = common::Distribution::constant(seconds);
        work += seconds * static_cast<double>(task.cores);
        inputs->tasks.push_back(std::move(task));
      }
    }
    const double scale = kTotalCoreSeconds / kPriorities / work;
    for (std::size_t i = first; i < inputs->tasks.size(); ++i) {
      auto& task = inputs->tasks[i];
      task.duration = task.duration.scaled(scale);
    }
  }
  rng.shuffle(inputs->tasks);
  // A fixed number of faults (the cap is nearly always reached before
  // the horizon), early enough that recovery and speculation tails end
  // before the queue drains: the last completion stays a property of
  // the workload, not of one unlucky straggler.
  inputs->crashes.mean_interarrival = 7.5;
  inputs->crashes.mean_time_to_repair = 60.0;
  inputs->crashes.horizon = 200.0;
  inputs->crashes.max_events = 20;
  inputs->slow_nodes.mean_interarrival = 6.0;
  inputs->slow_nodes.mean_time_to_repair = 60.0;
  inputs->slow_nodes.horizon = 120.0;
  inputs->slow_nodes.max_events = 12;
  inputs->slow_nodes.magnitude = common::Distribution::uniform(4.0, 6.0);
  return inputs;
}

class Campaign final : public Workload {
 public:
  Campaign(core::Session& session, std::shared_ptr<const CampaignInputs> in)
      : session_(session), in_(std::move(in)) {}

  void setup(Spans& spans) override {
    core::Pilot* pilot = nullptr;
    {
      auto scope = spans.scope("platform.setup",
                               "Session::add_platform+submit_pilot");
      session_.add_platform(platform::delta_profile(kNodes));
      pilot = &session_.submit_pilot({.platform = "delta", .nodes = kNodes});
    }
    {
      auto scope = spans.scope("core.setup",
                               "TaskManager::set_restart_policy+"
                               "set_speculation, FailureCoordinator::arm_*");
      session_.tasks().set_restart_policy(
          {.max_restarts = 3, .backoff = 1.0});
      session_.tasks().set_speculation(
          {.enabled = true, .latency_multiple = 1.5, .min_delay = 1.0});
      session_.failures().arm_node_crashes("delta", in_->crashes);
      session_.failures().arm_slow_nodes("delta", in_->slow_nodes);
    }
    auto scope = spans.scope("core.submit", "TaskManager::submit_all");
    uids_ = session_.tasks().submit_all(*pilot, in_->tasks);
  }

  void collect(RunRecord& record) override {
    const core::TaskManager& tasks = session_.tasks();
    std::vector<double> latencies;
    latencies.reserve(uids_.size());
    std::uint64_t completions = common::kFnvOffsetBasis;
    double first_submit = 0.0;
    double last_done = 0.0;
    bool first = true;
    for (const std::string& uid : uids_) {
      const core::Task& task = tasks.get(uid);
      const double submitted = task.state_time(core::TaskState::created);
      first_submit = first ? submitted : std::min(first_submit, submitted);
      first = false;
      ++record.attempted;
      if (task.state() != core::TaskState::done) {
        ++record.failed;
        continue;
      }
      ++record.done;
      const double done = task.state_time(core::TaskState::done);
      last_done = std::max(last_done, done);
      latencies.push_back(done - submitted);
      completions = fold_time(common::fnv1a(completions, uid), done);
    }
    record.makespan_s = last_done - first_submit;
    record.latency_p50_s = latency_quantile(latencies, record.failed, 0.50);
    record.latency_p99_s = latency_quantile(latencies, record.failed, 0.99);
    record.fingerprints["completion_hash"] = completions;
    add_critical_path(session_, first_submit, last_done, record);
  }

 private:
  core::Session& session_;
  std::shared_ptr<const CampaignInputs> in_;
  std::vector<std::string> uids_;
};

}  // namespace

WorkloadPlan plan_campaign(std::uint64_t seed) {
  auto inputs = generate(seed);
  WorkloadPlan plan;
  plan.name = "campaign";
  plan.unit = "task";
  plan.factory = [inputs](core::Session& session, Spans&) {
    return std::make_unique<Campaign>(session, inputs);
  };
  for (const core::TaskDescription& task : inputs->tasks) {
    plan.replay.push_back(
        {task.cores, task.gpus, task.mem_gb, task.priority});
  }
  plan.replay_profile = platform::delta_profile(kNodes);
  return plan;
}

}  // namespace perf
