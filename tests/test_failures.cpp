// Failure as a first-class scenario: the seeded sim::FailureInjector
// event streams, and the runtime surviving what they dispatch — node
// crashes re-placed with backoff, pilot preemption re-bound to
// survivors, stragglers beaten by speculation, store crashes repaired
// from surviving replicas, link failures terminal for in-flight
// attempts, inference clients stopped with an attempt that ends early.
// Same seed, bit-identical failure/recovery/repair logs.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "ripple/common/random.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/session.hpp"
#include "ripple/ml/inference_service.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;
using sim::FailureKind;

// ---------------------------------------------------------------------------
// Injector determinism
// ---------------------------------------------------------------------------

struct InjectorRun {
  std::vector<std::string> log;
  std::uint64_t hash = 0;
  std::size_t injected = 0;
};

InjectorRun run_injector(std::uint64_t seed) {
  sim::EventLoop loop;
  sim::FailureInjector injector(loop, common::Rng(seed));
  sim::FailureInjector::Schedule crashes;
  crashes.mean_interarrival = 5.0;
  crashes.mean_time_to_repair = 8.0;
  crashes.horizon = 200.0;
  injector.arm(FailureKind::node_crash, {"n0", "n1", "n2", "n3"}, crashes);
  sim::FailureInjector::Schedule slow;
  slow.mean_interarrival = 11.0;
  slow.mean_time_to_repair = 6.0;
  slow.horizon = 200.0;
  slow.magnitude = common::Distribution::uniform(2.0, 8.0);
  injector.arm(FailureKind::slow_node, {"n0", "n1", "n2", "n3"}, slow);
  loop.run_until(300.0);
  return {injector.event_log(), injector.event_log_hash(),
          injector.injected()};
}

TEST(FailureInjector, SameSeedBitIdenticalEventStream) {
  const InjectorRun first = run_injector(1234);
  const InjectorRun rerun = run_injector(1234);
  EXPECT_GT(first.injected, 0u);
  EXPECT_EQ(first.log, rerun.log);
  EXPECT_EQ(first.hash, rerun.hash);
  const InjectorRun other = run_injector(1235);
  EXPECT_NE(first.log, other.log);
}

TEST(FailureInjector, DownTargetsAreNotRepicked) {
  sim::EventLoop loop;
  sim::FailureInjector injector(loop, common::Rng(7));
  sim::FailureInjector::Schedule crashes;
  crashes.mean_interarrival = 1.0;
  crashes.mean_time_to_repair = 0.0;  // permanent: one crash per target
  injector.arm(FailureKind::node_crash, {"a", "b"}, crashes);
  loop.run();
  EXPECT_EQ(injector.injected(), 2u);
}

// ---------------------------------------------------------------------------
// Runtime survival
// ---------------------------------------------------------------------------

TaskDescription modeled_task(double seconds, std::size_t cores = 1) {
  TaskDescription desc;
  desc.name = "t";
  desc.kind = "modeled";
  desc.cores = cores;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

TEST(FailureRecovery, NodeCrashReplacesTaskAndCompletes) {
  Session session{SessionConfig{.seed = 11}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_restart_policy({.max_restarts = 3});

  const auto uid = session.tasks().submit(pilot, modeled_task(10.0));
  // Both nodes die mid-run, wherever the task landed; capacity comes
  // back at t=6 and the backed-off re-placement must pick it up.
  auto& injector = session.failures().injector();
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string id = session.cluster("delta").node(i).id();
    injector.inject_at(2.0, FailureKind::node_crash, id);
    injector.inject_at(6.0, FailureKind::node_restore, id);
  }
  bool done = false;
  session.tasks().when_done({uid}, [&](bool ok) { done = ok; });
  session.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_EQ(session.tasks().restarts_total(), 1u);
  ASSERT_FALSE(session.tasks().recovery_log().empty());
  EXPECT_NE(session.tasks().recovery_log().front().find("restart1"),
            std::string::npos);
  // The interrupted attempt's 2 s were lost: completion is later than
  // the unfailed 10 s makespan.
  EXPECT_GT(session.now(), 10.0);
}

TEST(FailureRecovery, TracedCrashRecoveryIsDeterministic) {
  // The same crash-and-restart scenario with tracing on: the span log
  // must show the restart (two RUNNING entries, a recovery span, fault
  // instants) and be bit-identical across same-seed reruns.
  const auto run = [] {
    struct Out {
      std::uint64_t span_hash = 0;
      bool saw_recovery = false;
      bool saw_fault = false;
      std::size_t running_entries = 0;
      double restarts = 0.0;
      double injected = 0.0;
      double repaired = 0.0;
      bool done = false;
    } out;
    Session session{SessionConfig{.seed = 11, .tracing = true}};
    session.add_platform(platform::delta_profile(2));
    Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
    session.tasks().set_restart_policy({.max_restarts = 3});
    const auto uid = session.tasks().submit(pilot, modeled_task(10.0));
    auto& injector = session.failures().injector();
    // Crash at t=5, well into the 10 s compute, so the first attempt is
    // RUNNING when interrupted and the restart re-enters RUNNING.
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string id = session.cluster("delta").node(i).id();
      injector.inject_at(5.0, FailureKind::node_crash, id);
      injector.inject_at(9.0, FailureKind::node_restore, id);
    }
    session.tasks().when_done({uid}, [&](bool ok) { out.done = ok; });
    session.run();
    out.span_hash = session.tracer().span_log_hash();
    for (const auto& span : session.tracer().spans()) {
      out.saw_recovery |= span.category == "recovery";
      out.saw_fault |= span.category == "fault";
    }
    // The fixed Timeline keeps every RUNNING entry, not just the first.
    out.running_entries = session.timeline().state_times(uid, "RUNNING").size();
    out.restarts = session.counters().value("task.restarts");
    out.injected = session.counters().value("fault.injected");
    out.repaired = session.counters().value("fault.repaired");
    return out;
  };
  const auto first = run();
  EXPECT_TRUE(first.done);
  EXPECT_TRUE(first.saw_recovery);
  EXPECT_TRUE(first.saw_fault);
  EXPECT_GE(first.running_entries, 2u);
  EXPECT_GE(first.restarts, 1.0);
  EXPECT_GE(first.injected, 2.0);  // both nodes crashed
  EXPECT_GE(first.repaired, 2.0);  // and came back
  const auto rerun = run();
  EXPECT_EQ(rerun.span_hash, first.span_hash);
  EXPECT_EQ(rerun.running_entries, first.running_entries);
}

TEST(FailureRecovery, FailStopWithoutRestartBudget) {
  Session session{SessionConfig{.seed = 11}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  // Default policy: max_restarts = 0, any interrupt is fatal.
  const auto uid = session.tasks().submit(pilot, modeled_task(10.0));
  auto& injector = session.failures().injector();
  for (std::size_t i = 0; i < 2; ++i) {
    injector.inject_at(2.0, FailureKind::node_crash,
                       session.cluster("delta").node(i).id());
  }
  session.run();
  const auto& task = session.tasks().get(uid);
  EXPECT_EQ(task.state(), TaskState::failed);
  EXPECT_NE(task.error().find("restart budget"), std::string::npos);
}

TEST(FailureRecovery, PilotPreemptionRebindsToSurvivor) {
  Session session{SessionConfig{.seed = 19}};
  session.add_platform(platform::delta_profile(4));
  Pilot& a = session.submit_pilot({.platform = "delta", .nodes = 2});
  Pilot& b = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_restart_policy({.max_restarts = 2});

  const auto uid = session.tasks().submit(a, modeled_task(10.0));
  session.failures().injector().inject_at(2.0, FailureKind::pilot_preempt,
                                          a.uid());
  bool done = false;
  session.tasks().when_done({uid}, [&](bool ok) { done = ok; });
  session.run();

  EXPECT_EQ(a.state(), PilotState::failed);
  EXPECT_EQ(b.state(), PilotState::active);
  EXPECT_TRUE(done);
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_EQ(session.tasks().restarts_total(), 1u);
}

TEST(FailureRecovery, PreemptionWithoutSurvivorFailsTasks) {
  Session session{SessionConfig{.seed = 19}};
  session.add_platform(platform::delta_profile(2));
  Pilot& only = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_restart_policy({.max_restarts = 5});
  const auto uid = session.tasks().submit(only, modeled_task(10.0));
  session.failures().injector().inject_at(2.0, FailureKind::pilot_preempt,
                                          only.uid());
  session.run();
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::failed);
}

TEST(FailureRecovery, SpeculationBeatsStraggler) {
  Session session{SessionConfig{.seed = 23}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});

  // The first-fit node is 10x slow before the task launches: the 4 s
  // full-node task would take 40 s. Speculation arms at 8 s of RUNNING
  // and the duplicate — full-node, so it cannot pack onto the
  // straggler — lands on the healthy node and wins at ~13 s.
  session.failures().injector().inject_at(
      0.0, FailureKind::slow_node, session.cluster("delta").node(0).id(),
      10.0);
  const auto uid = session.tasks().submit(pilot, modeled_task(4.0, 64));
  bool done = false;
  session.tasks().when_done({uid}, [&](bool ok) { done = ok; });
  session.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(session.tasks().speculations(), 1u);
  EXPECT_EQ(session.tasks().speculation_wins(), 1u);
  // The task finished far below the 40 s straggler horizon (the final
  // loop time still drains the loser's uncancellable payload event).
  EXPECT_LT(session.tasks().get(uid).state_time(TaskState::done), 20.0);
}

TEST(FailureRecovery, CrashUnderTheTwinCancelsOnlyTheTwin) {
  Session session{SessionConfig{.seed = 23}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});

  // As in SpeculationBeatsStraggler, the primary straggles on node 0 and
  // its full-node twin lands on node 1. Node 1 then crashes while it
  // holds only the twin: the twin is cancelled, and its payload, which
  // cannot be stopped, must not win later; the primary is untouched.
  auto& injector = session.failures().injector();
  injector.inject_at(0.0, FailureKind::slow_node,
                     session.cluster("delta").node(0).id(), 10.0);
  injector.inject_at(12.0, FailureKind::node_crash,
                     session.cluster("delta").node(1).id());
  const auto uid = session.tasks().submit(pilot, modeled_task(4.0, 64));
  int finished = 0;
  bool ok = false;
  session.tasks().when_done({uid}, [&](bool success) {
    ++finished;
    ok = success;
  });
  session.run();

  EXPECT_EQ(finished, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_EQ(session.tasks().speculations(), 1u);
  EXPECT_EQ(session.tasks().speculation_wins(), 0u);
  EXPECT_EQ(session.tasks().restarts_total(), 0u);
  const auto& log = session.tasks().recovery_log();
  ASSERT_EQ(log.size(), 2u) << ::testing::PrintToString(log);
  EXPECT_NE(log[0].find(uid + " speculate"), std::string::npos) << log[0];
  EXPECT_NE(log[1].find(uid + " spec_lost_node"), std::string::npos) << log[1];
  // The primary ran the straggler out: 4 s of work at a tenth the speed.
  EXPECT_GT(session.tasks().get(uid).state_time(TaskState::done), 40.0);
}

TEST(FailureRecovery, NodeCrashWalksOnlyItsTasksInUidOrder) {
  Session session{SessionConfig{.seed = 23}};
  session.add_platform(platform::delta_profile(3));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 3});
  session.tasks().set_restart_policy({.max_restarts = 3});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});
  auto& injector = session.failures().injector();
  const auto node = [&session](std::size_t i) {
    return session.cluster("delta").node(i).id();
  };
  // Priorities grant the batch out of uid order: the short task, then
  // the three long ones in reverse, fill node 0; the straggler lands on
  // node 1, which is 10x slow, and the full-node task on node 2. Once
  // the short task frees 16 cores of node 0, the straggler's twin lands
  // there, beside the three long tasks, and node 0 then crashes.
  injector.inject_at(0.0, FailureKind::slow_node, node(1), 10.0);
  injector.inject_at(12.0, FailureKind::node_crash, node(0));
  auto straggler = modeled_task(4.0, 16);
  std::vector<TaskDescription> batch{straggler};
  for (int priority = 1; priority <= 3; ++priority) {
    batch.push_back(modeled_task(30.0, 16));
    batch.back().priority = priority;
  }
  batch.push_back(modeled_task(2.0, 16));
  batch.back().priority = 4;
  batch.push_back(modeled_task(20.0, 64));
  const auto uids = session.tasks().submit_all(pilot, batch);
  session.run();

  // One line per task on the crashed node, in uid order: the twin's
  // owner first, then the three long tasks, whatever order their grants
  // came in.
  const std::vector<std::string> expected{
      "10.103877 task.000000 speculate",
      "12.000000 task.000000 spec_lost_node",
      "12.000000 task.000001 restart1 node delta:node0000 failed",
      "12.000000 task.000002 restart1 node delta:node0000 failed",
      "12.000000 task.000003 restart1 node delta:node0000 failed",
      "73.955768 task.000003 speculate",
      "74.111434 task.000001 speculate",
      "75.191089 task.000002 speculate",
      "106.298920 task.000001 spec_win",
      "106.851009 task.000002 spec_win",
  };
  EXPECT_EQ(session.tasks().recovery_log(), expected);
  EXPECT_EQ(session.tasks().restarts_total(), 3u);
  for (const auto& uid : uids) {
    EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done) << uid;
  }
  // The straggler's primary (node 1) and the full-node task (node 2)
  // ran once, untouched by the crash.
  for (const auto& uid : {uids[0], uids[5]}) {
    EXPECT_EQ(session.timeline().entry_count(uid, "SCHEDULING"), 1u) << uid;
    EXPECT_EQ(session.timeline().entry_count(uid, "RUNNING"), 1u) << uid;
  }
  EXPECT_GT(session.tasks().get(uids[0]).state_time(TaskState::done), 40.0);
}

/// What a run with a twin stuck in the scheduler queue leaves behind.
struct QueuedTwinRun {
  std::vector<std::string> recovery_log;
  std::uint64_t grant_log_hash = 0;
  std::uint64_t speculations = 0;
  std::size_t queued_at_probe = 0;
  std::size_t waiting_after = 0;
  std::vector<double> done_at;
};

/// The straggler (4 s, full-node) runs 10x slow on node 0 while a
/// 100 s full-node task holds node 1, so its twin's request, submitted
/// at 8 s of RUNNING, has no node to go to and stays queued. The probe
/// at 11 s counts the queue. `crash_at` > 0 crashes node 0 then (for
/// good), interrupting the primary; otherwise the primary finishes.
QueuedTwinRun run_queued_twin(double crash_at) {
  Session session{SessionConfig{.seed = 23}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_restart_policy({.max_restarts = 2});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});
  auto& injector = session.failures().injector();
  const std::string node0 = session.cluster("delta").node(0).id();
  injector.inject_at(0.0, FailureKind::slow_node, node0, 10.0);
  if (crash_at > 0.0) {
    injector.inject_at(crash_at, FailureKind::node_crash, node0);
  }
  const auto uids = session.tasks().submit_all(
      pilot, {modeled_task(4.0, 64), modeled_task(100.0, 64)});
  QueuedTwinRun out;
  session.loop().call_at(11.0, [&] {
    out.queued_at_probe = session.scheduler().waiting_total();
  });
  session.run();
  out.recovery_log = session.tasks().recovery_log();
  out.grant_log_hash = session.scheduler().grant_log_hash();
  out.speculations = session.tasks().speculations();
  out.waiting_after = session.scheduler().waiting_total();
  for (const auto& uid : uids) {
    EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done) << uid;
    out.done_at.push_back(
        session.tasks().get(uid).state_time(TaskState::done));
  }
  return out;
}

TEST(FailureRecovery, PrimaryFinishingDropsItsQueuedTwin) {
  // The primary finishes at ~41.6 s with its twin still queued: the
  // twin's request leaves the queue and is never granted.
  const QueuedTwinRun run = run_queued_twin(/*crash_at=*/0.0);
  EXPECT_EQ(run.queued_at_probe, 1u);
  EXPECT_EQ(run.waiting_after, 0u);
  const std::vector<std::string> expected{"9.564452 task.000000 speculate"};
  EXPECT_EQ(run.recovery_log, expected);
  EXPECT_EQ(run.grant_log_hash, 8789677042408782147u);
  EXPECT_EQ(run.speculations, 0u);
  EXPECT_EQ(run.done_at,
            (std::vector<double>{41.564452169426389, 101.35331385156067}));
}

TEST(FailureRecovery, CrashedPrimaryDropsItsQueuedTwin) {
  // Node 0 crashes at 20 s under the primary, whose twin is still
  // queued: the twin's request leaves the queue, and the restarted
  // primary waits for node 1 and reruns there once the long task ends.
  const QueuedTwinRun run = run_queued_twin(/*crash_at=*/20.0);
  EXPECT_EQ(run.queued_at_probe, 1u);
  EXPECT_EQ(run.waiting_after, 0u);
  const std::vector<std::string> expected{
      "9.564452 task.000000 speculate",
      "20.000000 task.000000 restart1 node delta:node0000 failed"};
  EXPECT_EQ(run.recovery_log, expected);
  EXPECT_EQ(run.grant_log_hash, 7441435271221949015u);
  EXPECT_EQ(run.speculations, 0u);
  EXPECT_EQ(run.done_at,
            (std::vector<double>{106.7767717881637, 101.35331385156067}));
}

TEST(FailureRecovery, StoreCrashRepairsFromSurvivingReplica) {
  Session session{SessionConfig{.seed = 29}};
  auto& data = session.data();
  data.set_default_bandwidth(1e8);
  data.add_store("a", 1e9);
  data.add_store("b", 1e9);
  data.add_store("c", 2e9);
  data.register_dataset("d", 1e8, "a");
  bool staged = false;
  data.stage({{"d", "b"}}, [&](bool ok, const std::string&) { staged = ok; });

  // Store "a" dies after the copy into "b" has landed; the repair must
  // re-stripe from the survivor into "c" (most free bytes). Later the
  // store rejoins, empty, at its old capacity.
  auto& injector = session.failures().injector();
  injector.inject_at(30.0, FailureKind::store_crash, "a");
  injector.inject_at(100.0, FailureKind::store_restore, "a");
  session.run();

  EXPECT_TRUE(staged);
  EXPECT_FALSE(data.available_in("d", "a"));
  EXPECT_TRUE(data.available_in("d", "b"));
  EXPECT_TRUE(data.available_in("d", "c"));
  EXPECT_EQ(data.repairs_started(), 1u);
  EXPECT_EQ(data.repairs_completed(), 1u);
  ASSERT_GE(data.repair_log().size(), 3u);
  EXPECT_NE(data.repair_log()[0].find("store_failed a lost=1"),
            std::string::npos);
  EXPECT_NE(data.repair_log()[1].find("repair d -> c"), std::string::npos);
  // store_restore re-declared the store at its old capacity, empty.
  EXPECT_DOUBLE_EQ(session.data().catalog().store("a").capacity, 1e9);
  EXPECT_DOUBLE_EQ(session.data().catalog().store("a").used, 0.0);
}

TEST(FailureRecovery, StoreCrashWithoutSurvivorLosesDataset) {
  Session session{SessionConfig{.seed = 29}};
  auto& data = session.data();
  data.add_store("a", 1e9);
  data.add_store("b", 1e9);
  data.register_dataset("solo", 1e8, "a");
  session.failures().injector().inject_at(1.0, FailureKind::store_crash,
                                          "a");
  session.run();
  EXPECT_EQ(data.repairs_started(), 0u);
  EXPECT_FALSE(data.has("solo") && data.available_in("solo", "a"));
  ASSERT_EQ(data.repair_log().size(), 2u);
  EXPECT_NE(data.repair_log()[1].find("lost solo"), std::string::npos);
}

TEST(FailureRecovery, LinkDownIsTerminalUntilRestored) {
  Session session{SessionConfig{.seed = 31}};
  auto& data = session.data();
  data.set_default_bandwidth(1e8);
  data.add_store("a", 1e9);
  data.add_store("b", 1e9);
  data.register_dataset("d", 1e8, "a");
  session.failures().injector().inject_at(0.0, FailureKind::link_down,
                                          "a|b");

  bool first_ok = true;
  data.stage({{"d", "b"}},
             [&](bool ok, const std::string&) { first_ok = ok; });
  session.run();
  // Terminal: the attempt died on the downed link without burning the
  // retry budget, and the waiter saw the failure.
  EXPECT_FALSE(first_ok);
  EXPECT_FALSE(data.available_in("d", "b"));

  session.failures().injector().inject_at(session.now() + 1.0,
                                          FailureKind::link_up, "a|b");
  bool second_ok = false;
  data.stage({{"d", "b"}},
             [&](bool ok, const std::string&) { second_ok = ok; });
  session.run();
  EXPECT_TRUE(second_ok);
  EXPECT_TRUE(data.available_in("d", "b"));
}

// ---------------------------------------------------------------------------
// Inference clients whose attempt ends early
// ---------------------------------------------------------------------------

/// One llama-8b service on a 2-node delta pilot, and one inference
/// client task of 400 requests, 8 in flight, submitted once the service
/// is ready. The service stops when the client's task ends.
class EarlyEndingClient : public ::testing::Test {
 protected:
  EarlyEndingClient() {
    ml::install(session_);
    session_.add_platform(platform::delta_profile(2));
    pilot_ = &session_.submit_pilot({.platform = "delta", .nodes = 2});
  }

  /// Submits a `cores`-core client once the service is ready, calls
  /// `on_submit` right after, and runs the session. `served_` counts
  /// the service's requests when the client's task ends.
  void run(std::size_t cores, std::function<void()> on_submit = [] {}) {
    ServiceDescription svc;
    svc.name = "llm";
    svc.program = "inference";
    svc.config = json::Value::object({{"model", "llama-8b"}});
    svc_uid_ = session_.services().submit(*pilot_, svc);
    session_.services().when_ready({svc_uid_}, [&, cores](bool ok) {
      ASSERT_TRUE(ok);
      const std::string endpoint = session_.services().get(svc_uid_).endpoint();
      TaskDescription desc;
      desc.kind = "inference_client";
      desc.cores = cores;
      desc.payload =
          json::Value::object({{"endpoints", json::Value::array({endpoint})},
                               {"requests", 400},
                               {"concurrency", 8}});
      uid_ = session_.tasks().submit(*pilot_, desc);
      session_.tasks().when_done({uid_}, [this](bool) {
        served_ = server().served();
        session_.services().stop_all();
      });
      on_submit();
    });
    session_.run();
  }

  ml::InferenceServer& server() {
    auto* program = dynamic_cast<ml::InferenceProgram*>(
        session_.services().program(svc_uid_));
    return *program->server();
  }

  const Task& client() { return session_.tasks().get(uid_); }

  std::int64_t result_count(const char* key) {
    return client().result().get_or(key, json::Value(0)).as_int();
  }

  Session session_{SessionConfig{.seed = 41}};
  Pilot* pilot_ = nullptr;
  std::string svc_uid_;
  std::string uid_;
  std::uint64_t served_ = 0;
};

TEST_F(EarlyEndingClient, CrashedAttemptStopsAndItsRestartFinishes) {
  // A full-node client runs beside the service's node. Its node crashes
  // 8 s into the run and comes back 10 s later. The interrupted attempt
  // must stop with its payload: late replies must not reach its freed
  // context, and it must not keep sending. The restarted attempt sends
  // all 400 requests again and completes the task.
  session_.tasks().set_restart_policy({.max_restarts = 2});
  std::uint64_t sent_before_crash = 0;
  run(/*cores=*/64, [&] {
    session_.loop().call_after(8.0, [&] {
      ASSERT_EQ(client().state(), TaskState::running);
      // Every request sent so far has reached the server by now.
      sent_before_crash = server().served() + server().outstanding();
      const std::string node = client().slot().node_id;
      auto& injector = session_.failures().injector();
      injector.inject_at(session_.now(), FailureKind::node_crash, node);
      injector.inject_at(session_.now() + 10.0, FailureKind::node_restore,
                         node);
    });
  });

  ASSERT_EQ(client().state(), TaskState::done);
  EXPECT_EQ(result_count("ok"), 400);
  EXPECT_EQ(result_count("failed"), 0);
  EXPECT_EQ(session_.tasks().restarts_total(), 1u);
  // Only the restarted attempt's requests and the ones the first
  // attempt sent before the crash reach the service.
  EXPECT_EQ(sent_before_crash, 9u);
  EXPECT_EQ(served_, 400u + sent_before_crash);
}

TEST_F(EarlyEndingClient, LosingSpeculativeTwinStops) {
  // The client's duplicate launches a second after the primary starts
  // and still has requests in flight when the primary finishes first.
  // The cancelled twin's replies must find it stopped: they may not
  // read its freed context or report a second result.
  session_.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 1.5, .min_delay = 1.0});
  run(/*cores=*/1);

  ASSERT_EQ(client().state(), TaskState::done);
  EXPECT_EQ(result_count("ok"), 400);
  EXPECT_EQ(session_.tasks().speculations(), 1u);
  EXPECT_EQ(session_.tasks().speculation_wins(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism of a failing run
// ---------------------------------------------------------------------------

struct FailingRun {
  std::vector<std::string> events;
  std::uint64_t event_hash = 0;
  std::uint64_t recovery_hash = 0;
  std::uint64_t grant_hash = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
};

FailingRun run_failing_workload(std::uint64_t seed) {
  Session session{SessionConfig{.seed = seed}};
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  session.tasks().set_restart_policy({.max_restarts = 3});

  sim::FailureInjector::Schedule crashes;
  crashes.mean_interarrival = 15.0;
  crashes.mean_time_to_repair = 10.0;
  crashes.horizon = 120.0;
  session.failures().arm_node_crashes("delta", crashes);

  std::vector<TaskDescription> batch(24, modeled_task(6.0, 32));
  (void)session.tasks().submit_all(pilot, batch);
  session.run();

  FailingRun out;
  out.events = session.failures().injector().event_log();
  out.event_hash = session.failures().injector().event_log_hash();
  out.recovery_hash = session.tasks().recovery_log_hash();
  out.grant_hash = session.scheduler().grant_log_hash();
  out.done = session.tasks().count_in_state(TaskState::done);
  out.failed = session.tasks().count_in_state(TaskState::failed);
  return out;
}

TEST(FailureRecovery, SameSeedSameOutcomeAcrossReruns) {
  const FailingRun first = run_failing_workload(77);
  const FailingRun rerun = run_failing_workload(77);
  EXPECT_GT(first.events.size(), 0u);
  EXPECT_EQ(first.done + first.failed, 24u);
  EXPECT_EQ(first.events, rerun.events);
  EXPECT_EQ(first.event_hash, rerun.event_hash);
  EXPECT_EQ(first.recovery_hash, rerun.recovery_hash);
  EXPECT_EQ(first.grant_hash, rerun.grant_hash);
  EXPECT_EQ(first.done, rerun.done);
  EXPECT_EQ(first.failed, rerun.failed);
}

struct RecoveryPathsRun {
  std::uint64_t event_hash = 0;
  std::uint64_t recovery_hash = 0;
  std::uint64_t repair_hash = 0;
  std::uint64_t grant_hash = 0;
  std::uint64_t span_hash = 0;
  std::size_t spans = 0;
  std::size_t done = 0;
};

/// A workload that exercises every recovery path: seeded node crashes
/// interrupting re-placed tasks plus a store crash repaired from a
/// surviving replica. With `tracing` the full span/counter pipeline
/// rides along.
RecoveryPathsRun run_recovery_paths(bool tracing) {
  Session session{SessionConfig{.seed = 67}};
  if (tracing) session.enable_tracing(/*gauge_tick=*/2.0);
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  session.tasks().set_restart_policy({.max_restarts = 3});

  auto& data = session.data();
  data.set_default_bandwidth(1e8);
  data.add_store("sa", 1e9);
  data.add_store("sb", 1e9);
  data.add_store("sc", 2e9);
  data.register_dataset("d", 1e8, "sa");
  data.stage({{"d", "sb"}}, [](bool, const std::string&) {});

  sim::FailureInjector::Schedule crashes;
  crashes.mean_interarrival = 12.0;
  crashes.mean_time_to_repair = 8.0;
  crashes.horizon = 100.0;
  session.failures().arm_node_crashes("delta", crashes);
  session.failures().injector().inject_at(20.0, FailureKind::store_crash,
                                          "sa");

  std::vector<TaskDescription> batch(16, modeled_task(5.0, 32));
  (void)session.tasks().submit_all(pilot, batch);
  session.run();

  RecoveryPathsRun out;
  out.event_hash = session.failures().injector().event_log_hash();
  out.recovery_hash = session.tasks().recovery_log_hash();
  out.repair_hash = session.data().repair_log_hash();
  out.grant_hash = session.scheduler().grant_log_hash();
  out.span_hash = session.tracer().span_log_hash();
  out.spans = session.tracer().spans().size();
  out.done = session.tasks().count_in_state(TaskState::done);
  return out;
}

TEST(FailureRecovery, CrashAndRepairLogsRerunTracedOrNot) {
  const RecoveryPathsRun first = run_recovery_paths(false);
  EXPECT_GT(first.done, 0u);
  const RecoveryPathsRun rerun = run_recovery_paths(false);
  EXPECT_EQ(rerun.event_hash, first.event_hash);
  EXPECT_EQ(rerun.recovery_hash, first.recovery_hash);
  EXPECT_EQ(rerun.repair_hash, first.repair_hash);
  EXPECT_EQ(rerun.grant_hash, first.grant_hash);
  EXPECT_EQ(rerun.done, first.done);
  // With tracing on and faults armed, the span log (task phases,
  // recovery episodes, placement passes, fault instants) reruns bit
  // for bit, and tracing is observation only: the traced run's logs
  // match the untraced baseline.
  const RecoveryPathsRun traced = run_recovery_paths(true);
  EXPECT_GT(traced.spans, 0u);
  EXPECT_EQ(traced.event_hash, first.event_hash);
  EXPECT_EQ(traced.recovery_hash, first.recovery_hash);
  EXPECT_EQ(traced.repair_hash, first.repair_hash);
  EXPECT_EQ(traced.grant_hash, first.grant_hash);
  EXPECT_EQ(traced.done, first.done);
  const RecoveryPathsRun traced_rerun = run_recovery_paths(true);
  EXPECT_EQ(traced_rerun.span_hash, traced.span_hash);
  EXPECT_EQ(traced_rerun.spans, traced.spans);
  EXPECT_EQ(traced_rerun.grant_hash, traced.grant_hash);
}

}  // namespace
