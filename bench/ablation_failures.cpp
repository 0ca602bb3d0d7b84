// Ablation: runtime survival under seeded node failures.
//
// The paper's pilot runtime is built for long-running campaigns on
// real machines, where nodes die mid-run; RADICAL-Pilot's answer is to
// re-place work rather than abort the run. This bench sweeps the
// per-task node-failure probability {0%, 2%, 5%, 10%} over a fixed
// modeled workload and compares three runtimes: the zero-failure
// baseline, a fail-stop runtime (no restart budget), and the
// recovering runtime (restart budget 3 with backoff). Failure streams
// come from the seeded FailureInjector, so every row is reproduced
// bit-identically on a rerun — the bench checks that too.
//
// Gate: at the 5% failure rate the recovering runtime must complete
// 100% of tasks with <= 2x makespan inflation over the zero-failure
// baseline, and every configuration's event/recovery/grant hashes
// must match across a same-seed rerun.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kTaskCores = 32;
constexpr double kTaskSeconds = 6.0;
constexpr double kMttr = 5.0;

core::TaskDescription modeled(double seconds, std::size_t cores) {
  core::TaskDescription desc;
  desc.kind = "modeled";
  desc.cores = cores;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

struct RunResult {
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t restarts = 0;
  std::size_t events = 0;
  double makespan = 0.0;
  std::uint64_t event_hash = 0;
  std::uint64_t recovery_hash = 0;
  std::uint64_t grant_hash = 0;
};

/// One full session: `tasks` modeled tasks on a delta pilot, node
/// crashes armed so that the expected crash count over the baseline
/// makespan is `rate * tasks`, and the restart budget picking between
/// fail-stop and recovering behaviour.
RunResult run_case(std::size_t tasks, double rate, std::size_t max_restarts,
                   double baseline_makespan) {
  core::Session session{core::SessionConfig{.seed = 4242}};
  session.add_platform(platform::delta_profile(kNodes));
  core::Pilot& pilot =
      session.submit_pilot({.platform = "delta", .nodes = kNodes});
  session.tasks().set_restart_policy(
      {.max_restarts = static_cast<int>(max_restarts), .backoff = 0.5});

  if (rate > 0.0) {
    sim::FailureInjector::Schedule crashes;
    crashes.mean_interarrival =
        baseline_makespan / (rate * static_cast<double>(tasks));
    crashes.mean_time_to_repair = kMttr;
    // Stop injecting once the healthy-run horizon has passed; recovery
    // tails run on undisturbed, like a real incident window.
    crashes.horizon = 2.0 * baseline_makespan;
    session.failures().arm_node_crashes("delta", crashes);
  }

  std::vector<core::TaskDescription> batch(tasks,
                                           modeled(kTaskSeconds, kTaskCores));
  (void)session.tasks().submit_all(pilot, batch);
  session.run();

  RunResult out;
  out.done = session.tasks().count_in_state(core::TaskState::done);
  out.failed = session.tasks().count_in_state(core::TaskState::failed);
  out.restarts = session.tasks().restarts_total();
  out.events = session.failures().injector().event_log().size();
  out.makespan = session.now();
  out.event_hash = session.failures().injector().event_log_hash();
  out.recovery_hash = session.tasks().recovery_log_hash();
  out.grant_hash = session.scheduler().grant_log_hash();
  return out;
}

bool same_hashes(const RunResult& a, const RunResult& b) {
  return a.event_hash == b.event_hash && a.recovery_hash == b.recovery_hash &&
         a.grant_hash == b.grant_hash && a.done == b.done &&
         a.failed == b.failed && a.makespan == b.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t tasks = smoke ? 24 : 64;
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.05} : std::vector<double>{0.02, 0.05, 0.10};

  std::cout << "Ablation: seeded node failures vs runtime recovery ("
            << tasks << " x " << kTaskCores << "-core modeled tasks, "
            << kNodes << " delta nodes, MTTR " << kMttr << "s)\n";

  // The zero-failure baseline fixes the makespan that both the MTBF
  // derivation and the inflation gate are measured against.
  const RunResult baseline = run_case(tasks, 0.0, 0, 0.0);

  metrics::Table table({"fail_rate", "mode", "done", "failed", "restarts",
                        "events", "makespan_s", "inflation_x",
                        "rerun_identical"});
  auto add_row = [&](double rate, const std::string& mode, const RunResult& r,
                     bool identical) {
    table.add_row({strutil::format_fixed(rate * 100.0, 0) + "%", mode,
                   std::to_string(r.done), std::to_string(r.failed),
                   std::to_string(r.restarts), std::to_string(r.events),
                   strutil::format_fixed(r.makespan, 1),
                   strutil::format_fixed(r.makespan / baseline.makespan, 2),
                   identical ? "yes" : "NO"});
  };

  bool pass = true;
  add_row(0.0, "baseline", baseline,
          same_hashes(baseline, run_case(tasks, 0.0, 0, 0.0)));
  for (const double rate : rates) {
    const RunResult failstop =
        run_case(tasks, rate, 0, baseline.makespan);
    const RunResult failstop_rerun =
        run_case(tasks, rate, 0, baseline.makespan);
    const RunResult recover =
        run_case(tasks, rate, 3, baseline.makespan);
    const RunResult recover_rerun =
        run_case(tasks, rate, 3, baseline.makespan);
    const bool fs_identical = same_hashes(failstop, failstop_rerun);
    const bool rc_identical = same_hashes(recover, recover_rerun);
    add_row(rate, "fail-stop", failstop, fs_identical);
    add_row(rate, "recovering", recover, rc_identical);
    pass = pass && fs_identical && rc_identical;
    if (rate >= 0.05 - 1e-9 && rate <= 0.05 + 1e-9) {
      // The headline gate: full completion at 5% with bounded slowdown.
      const bool complete = recover.done == tasks && recover.failed == 0;
      const bool bounded = recover.makespan <= 2.0 * baseline.makespan;
      if (!complete) {
        std::cout << "GATE: recovering runtime lost tasks at 5% ("
                  << recover.done << "/" << tasks << " done)\n";
      }
      if (!bounded) {
        std::cout << "GATE: makespan inflation "
                  << strutil::format_fixed(
                         recover.makespan / baseline.makespan, 2)
                  << "x exceeds 2x at 5%\n";
      }
      pass = pass && complete && bounded;
    }
  }

  std::cout << metrics::banner("Failure ablation");
  std::cout << table.to_string();
  table.write_csv(output_dir() + "/ablation_failures.csv");
  table.write_json(output_dir() + "/ablation_failures.json");
  std::cout << (pass ? "PASS" : "FAIL")
            << ": recovery + determinism gates\n";
  return pass ? 0 : 1;
}
