// Scaling: per-task host time and memory of a batch campaign as it grows.
//
// The paper's runtime keeps many tasks in flight per pilot, and
// RADICAL-Pilot (arXiv:2103.00091) and the task-runtime integration
// study (arXiv:2509.20819) characterize such runtimes by how per-task
// overhead holds up as the task count grows. This bench runs the repo
// benchmark's campaign shape: 60% small CPU, 20% wide CPU and 20% GPU
// tasks in four priority classes, lognormal durations, seeded node
// crashes (restart budget 3) and slow nodes (speculation on), in one
// submit_all on a Delta pilot. Each scale multiplies the task count,
// the node count, the total work and the fault rates and caps alike, so
// every scale is the same load per node. At x1 the inputs are the
// benchmark's campaign exactly.
//
// Each run is a fresh process (the bench re-executes itself with
// --scale N), so its peak RSS is its alone. Full run: x1 and x4 five
// times each and x16 three times, in rounds (x1, x4, x16, x1, ...), so
// host-speed drift reaches every scale alike; one x1 run lasts only
// ~50 ms of Session::run, too short to read alone. The bench prints
// every run, then per scale the task count and the medians of host
// microseconds of Session::run per task and peak-RSS KB per task, and
// the ratio of the largest scale's per-task time to x1's, from the
// medians. It writes the medians to bench_out/scale_campaign.json and
// every run to bench_out/scale_campaign_runs.json. --smoke: x1 twice
// and x2 once.
//
// Gate: every task ends DONE in every run, and every x1 process
// reproduces the first one's completion hash.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/core/failure_coordinator.hpp"

extern char** environ;

namespace {

using namespace ripple;

constexpr std::uint64_t kSeed = 1;
constexpr std::size_t kNodes = 128;  ///< at x1
constexpr int kPriorities = 4;
/// Lognormal task durations (simulated seconds), clamped to
/// [kMinDuration, kMaxDuration] and then scaled so every priority class
/// carries a quarter of the scale's total work.
constexpr double kDurationMedian = 30.0;
constexpr double kDurationSigma = 0.8;
constexpr double kMinDuration = 1.0;
constexpr double kMaxDuration = 120.0;
constexpr double kCoreSeconds = 3.24e6;  ///< total work at x1

struct Shape {
  std::size_t cores = 1;
  std::size_t gpus = 0;
  std::size_t count = 0;  ///< tasks of this shape per priority class at x1
};

/// 7,200 tasks at x1, every size equally often in every priority class.
constexpr Shape kShapes[] = {
    {1, 0, 270},  {2, 0, 270},  {4, 0, 270},  {8, 0, 270},
    {16, 0, 120}, {32, 0, 120}, {64, 0, 120},
    {4, 1, 120},  {8, 2, 120},  {16, 4, 120},
};

std::vector<core::TaskDescription> generate(std::size_t scale) {
  common::Rng rng = common::Rng(kSeed).fork("campaign.inputs");
  std::vector<core::TaskDescription> tasks;
  for (int priority = 0; priority < kPriorities; ++priority) {
    const std::size_t first = tasks.size();
    double work = 0.0;
    for (const Shape& shape : kShapes) {
      for (std::size_t i = 0; i < shape.count * scale; ++i) {
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
        tasks.push_back(std::move(task));
      }
    }
    const double factor =
        kCoreSeconds * static_cast<double>(scale) / kPriorities / work;
    for (std::size_t i = first; i < tasks.size(); ++i) {
      tasks[i].duration = tasks[i].duration.scaled(factor);
    }
  }
  rng.shuffle(tasks);
  return tasks;
}

/// What one scale's process reports back, as one JSON line.
struct ScaleResult {
  std::size_t scale = 0;
  std::size_t tasks = 0;
  std::size_t done = 0;
  double run_s = 0.0;
  double peak_rss_kb = 0.0;
  std::uint64_t completion_hash = 0;
};

/// Runs the campaign at `scale` in this process.
ScaleResult run_scale(std::size_t scale) {
  const std::vector<core::TaskDescription> inputs = generate(scale);
  const double per_node = static_cast<double>(scale);
  sim::FailureInjector::Schedule crashes;
  crashes.mean_interarrival = 7.5 / per_node;
  crashes.mean_time_to_repair = 60.0;
  crashes.horizon = 200.0;
  crashes.max_events = 20 * scale;
  sim::FailureInjector::Schedule slow;
  slow.mean_interarrival = 6.0 / per_node;
  slow.mean_time_to_repair = 60.0;
  slow.horizon = 120.0;
  slow.max_events = 12 * scale;
  slow.magnitude = common::Distribution::uniform(4.0, 6.0);

  core::Session session{core::SessionConfig{.seed = kSeed}};
  session.add_platform(platform::delta_profile(kNodes * scale));
  core::Pilot& pilot = session.submit_pilot(
      {.platform = "delta", .nodes = kNodes * scale});
  session.tasks().set_restart_policy({.max_restarts = 3, .backoff = 1.0});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 1.5, .min_delay = 1.0});
  session.failures().arm_node_crashes("delta", crashes);
  session.failures().arm_slow_nodes("delta", slow);
  const std::vector<std::string> uids =
      session.tasks().submit_all(pilot, inputs);

  const auto start = std::chrono::steady_clock::now();
  session.run();
  const std::chrono::duration<double> run =
      std::chrono::steady_clock::now() - start;

  ScaleResult out;
  out.scale = scale;
  out.tasks = uids.size();
  out.run_s = run.count();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.peak_rss_kb = static_cast<double>(usage.ru_maxrss);  // KB on Linux
  out.completion_hash = common::kFnvOffsetBasis;
  for (const std::string& uid : uids) {
    const core::Task& task = session.tasks().get(uid);
    if (task.state() != core::TaskState::done) continue;
    ++out.done;
    const double done = task.state_time(core::TaskState::done);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &done, sizeof bits);
    out.completion_hash =
        common::fnv1a(common::fnv1a(out.completion_hash, uid), bits);
  }
  return out;
}

json::Value to_json(const ScaleResult& r) {
  json::Value out = json::Value::object();
  out.set("scale", r.scale);
  out.set("tasks", r.tasks);
  out.set("done", r.done);
  out.set("run_s", r.run_s);
  out.set("peak_rss_kb", r.peak_rss_kb);
  out.set("completion_hash", std::to_string(r.completion_hash));
  return out;
}

ScaleResult from_json(const json::Value& v) {
  ScaleResult r;
  r.scale = static_cast<std::size_t>(v.at("scale").as_int());
  r.tasks = static_cast<std::size_t>(v.at("tasks").as_int());
  r.done = static_cast<std::size_t>(v.at("done").as_int());
  r.run_s = v.at("run_s").as_double();
  r.peak_rss_kb = v.at("peak_rss_kb").as_double();
  r.completion_hash = std::stoull(v.at("completion_hash").as_string());
  return r;
}

/// How many fresh processes run one scale.
struct Plan {
  std::size_t scale = 1;
  std::size_t runs = 1;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return common::quantile_sorted(values, 0.5);
}

/// Runs `self --scale N` and parses the JSON line it prints; throws
/// when the child cannot start or does not exit cleanly.
ScaleResult run_child(const char* self, std::size_t scale) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string scale_arg = std::to_string(scale);
  std::string flag = "--scale";
  std::vector<char*> args = {const_cast<char*>(self), flag.data(),
                             scale_arg.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawnp(&pid, self, &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error(strutil::cat("cannot start ", self));
  }
  std::string output;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof buffer)) > 0) {
    output.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(strutil::cat("scale x", scale, " process failed"));
  }
  return from_json(json::Value::parse(output));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--scale") {
      const auto scale = static_cast<std::size_t>(std::stoul(argv[i + 1]));
      std::cout << to_json(run_scale(scale)).dump() << "\n";
      return 0;
    }
  }

  const bool smoke = smoke_mode(argc, argv);
  std::vector<Plan> plan = {{1, 5}, {4, 5}, {16, 3}};
  if (smoke) plan = {{1, 2}, {2, 1}};
  std::cout << "Scaling: campaign batch at x" << plan.front().scale
            << " to x" << plan.back().scale << " (7200 tasks on " << kNodes
            << " delta nodes at x1, faults scaled alike), seed " << kSeed
            << ", a fresh process per run, in rounds over the scales\n";

  std::vector<std::vector<ScaleResult>> runs(plan.size());
  for (std::size_t round = 0;; ++round) {
    bool ran = false;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (round >= plan[i].runs) continue;
      runs[i].push_back(run_child(argv[0], plan[i].scale));
      ran = true;
    }
    if (!ran) break;
  }

  metrics::Table every({"scale", "run", "done", "run_s", "run_us_per_task",
                        "peak_rss_mb", "rss_kb_per_task"});
  metrics::Table medians({"scale", "tasks", "nodes", "runs", "run_s",
                          "run_us_per_task", "peak_rss_mb",
                          "rss_kb_per_task"});
  bool pass = true;
  bool reproduced = true;
  std::vector<double> us_per_task;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t scale = plan[i].scale;
    std::vector<double> run_s, rss_kb;
    for (std::size_t k = 0; k < runs[i].size(); ++k) {
      const ScaleResult& r = runs[i][k];
      const double tasks = static_cast<double>(r.tasks);
      every.add_row({std::to_string(scale), std::to_string(k + 1),
                     std::to_string(r.done),
                     strutil::format_fixed(r.run_s, 3),
                     strutil::format_fixed(r.run_s * 1e6 / tasks, 2),
                     strutil::format_fixed(r.peak_rss_kb / 1024.0, 1),
                     strutil::format_fixed(r.peak_rss_kb / tasks, 2)});
      if (r.done != r.tasks) {
        std::cout << "GATE: x" << scale << " run " << k + 1 << " finished "
                  << r.done << " of " << r.tasks << " tasks DONE\n";
        pass = false;
      }
      if (scale == 1 && r.completion_hash != runs[i].front().completion_hash) {
        reproduced = false;
      }
      run_s.push_back(r.run_s);
      rss_kb.push_back(r.peak_rss_kb);
    }
    const std::size_t task_count = runs[i].front().tasks;
    const double tasks = static_cast<double>(task_count);
    us_per_task.push_back(median(run_s) * 1e6 / tasks);
    medians.add_row({std::to_string(scale), std::to_string(task_count),
                     std::to_string(kNodes * scale),
                     std::to_string(runs[i].size()),
                     strutil::format_fixed(median(run_s), 3),
                     strutil::format_fixed(us_per_task.back(), 2),
                     strutil::format_fixed(median(rss_kb) / 1024.0, 1),
                     strutil::format_fixed(median(rss_kb) / tasks, 2)});
  }
  if (!reproduced) {
    std::cout << "GATE: a later x1 process changed the completion hash\n";
  }
  pass = pass && reproduced;
  const std::uint64_t x1_hash = runs.front().front().completion_hash;

  std::cout << metrics::banner("Campaign scaling: every run");
  std::cout << every.to_string();
  std::cout << metrics::banner("Campaign scaling: medians");
  std::cout << medians.to_string();
  medians.write_json(output_dir() + "/scale_campaign.json");
  every.write_json(output_dir() + "/scale_campaign_runs.json");
  std::cout << "x" << plan.back().scale
            << "/x1 run_us_per_task, from the medians: "
            << strutil::format_fixed(us_per_task.back() / us_per_task.front(),
                                     2)
            << "\n";
  std::cout << "x1 completion hash " << std::hex << x1_hash << std::dec
            << (reproduced ? " (reproduced by every x1 process)" : "")
            << "\n";
  std::cout << (pass ? "PASS" : "FAIL")
            << ": every task DONE at every scale, x1 reproducible\n";
  return pass ? 0 : 1;
}
