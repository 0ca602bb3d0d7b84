// Tests for the TaskManager: lifecycle, dependencies, service readiness
// relations, staging, cancellation and failure propagation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/session.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

TaskDescription quick_task(double seconds = 1.0) {
  TaskDescription desc;
  desc.name = "t";
  desc.kind = "modeled";
  desc.cores = 1;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

/// A task whose function payload does not exist: it fails at launch.
TaskDescription failing_task() {
  auto desc = quick_task();
  desc.kind = "function";
  desc.payload = json::Value::object({{"fn", "does-not-exist"}});
  return desc;
}

class TaskManagerTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 9}};
  Pilot* pilot = nullptr;

  void SetUp() override {
    ml::install(session);
    session.add_platform(platform::delta_profile(2));
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 2});
  }
};

TEST_F(TaskManagerTest, HappyPathStatesAndResult) {
  const auto uid = session.tasks().submit(*pilot, quick_task(2.5));
  bool done = false;
  session.tasks().when_done({uid}, [&](bool ok) { done = ok; });
  session.run();
  EXPECT_TRUE(done);
  const auto& task = session.tasks().get(uid);
  EXPECT_EQ(task.state(), TaskState::done);
  EXPECT_DOUBLE_EQ(task.result().at("runtime").as_double(), 2.5);
  // RUNNING lasted exactly the modeled duration.
  EXPECT_NEAR(task.duration(TaskState::running, TaskState::done), 2.5,
              1e-9);
  // Launch came before running, scheduling before launching.
  EXPECT_LE(task.state_time(TaskState::scheduling),
            task.state_time(TaskState::launching));
}

TEST_F(TaskManagerTest, BatchSubmissionAllComplete) {
  std::vector<TaskDescription> batch(10, quick_task(1.0));
  const auto uids = session.tasks().submit_all(*pilot, batch);
  EXPECT_EQ(uids.size(), 10u);
  bool all_done = false;
  session.tasks().when_done(uids, [&](bool ok) { all_done = ok; });
  session.run();
  EXPECT_TRUE(all_done);
  EXPECT_EQ(session.tasks().count_in_state(TaskState::done), 10u);
}

TEST_F(TaskManagerTest, DependencyOrdering) {
  const auto first = session.tasks().submit(*pilot, quick_task(5.0));
  auto second_desc = quick_task(1.0);
  second_desc.depends_on = {first};
  const auto second = session.tasks().submit(*pilot, second_desc);
  session.run();
  const auto& a = session.tasks().get(first);
  const auto& b = session.tasks().get(second);
  EXPECT_EQ(b.state(), TaskState::done);
  // The dependent could not start scheduling before the dep was DONE.
  EXPECT_GE(b.state_time(TaskState::scheduling),
            a.state_time(TaskState::done));
  // And it visibly WAITED.
  EXPECT_GE(b.state_time(TaskState::waiting), 0.0);
}

TEST_F(TaskManagerTest, DiamondDependencyGraph) {
  const auto root = session.tasks().submit(*pilot, quick_task(2.0));
  auto left_desc = quick_task(3.0);
  left_desc.depends_on = {root};
  auto right_desc = quick_task(1.0);
  right_desc.depends_on = {root};
  const auto left = session.tasks().submit(*pilot, left_desc);
  const auto right = session.tasks().submit(*pilot, right_desc);
  auto join_desc = quick_task(1.0);
  join_desc.depends_on = {left, right};
  const auto join = session.tasks().submit(*pilot, join_desc);
  session.run();
  const auto& j = session.tasks().get(join);
  EXPECT_EQ(j.state(), TaskState::done);
  EXPECT_GE(j.state_time(TaskState::scheduling),
            std::max(session.tasks().get(left).state_time(TaskState::done),
                     session.tasks().get(right).state_time(TaskState::done)));
}

TEST_F(TaskManagerTest, UnknownDependencyRejected) {
  auto desc = quick_task();
  desc.depends_on = {"task.999999"};
  EXPECT_THROW((void)session.tasks().submit(*pilot, desc), Error);
  desc.depends_on.clear();
  desc.requires_services = {"svc.999999"};
  EXPECT_THROW((void)session.tasks().submit(*pilot, desc), Error);
  desc.requires_services.clear();
  desc.kind = "no-such-payload";
  EXPECT_THROW((void)session.tasks().submit(*pilot, desc), Error);
}

TEST_F(TaskManagerTest, DependencyFailurePropagates) {
  auto failing = quick_task();
  failing.kind = "function";
  failing.payload = json::Value::object({{"fn", "does-not-exist"}});
  const auto bad = session.tasks().submit(*pilot, failing);
  auto dependent_desc = quick_task();
  dependent_desc.depends_on = {bad};
  const auto dependent = session.tasks().submit(*pilot, dependent_desc);
  bool all_ok = true;
  session.tasks().when_done({bad, dependent},
                            [&](bool ok) { all_ok = ok; });
  session.run();
  EXPECT_FALSE(all_ok);
  EXPECT_EQ(session.tasks().get(bad).state(), TaskState::failed);
  EXPECT_EQ(session.tasks().get(dependent).state(), TaskState::failed);
  EXPECT_NE(session.tasks().get(dependent).error().find(bad),
            std::string::npos);
}

TEST_F(TaskManagerTest, RequiresServicesGateExecution) {
  auto svc_desc = ServiceDescription{};
  svc_desc.program = "inference";
  svc_desc.config = json::Value::object({{"model", "llama-8b"}});
  svc_desc.gpus = 1;
  const auto svc = session.services().submit(*pilot, svc_desc);

  auto task_desc = quick_task(1.0);
  task_desc.requires_services = {svc};
  const auto task = session.tasks().submit(*pilot, task_desc);
  session.tasks().when_done(
      {task}, [&](bool) { session.services().stop_all(); });
  session.run();

  const auto& t = session.tasks().get(task);
  EXPECT_EQ(t.state(), TaskState::done);
  // The task waited for the full model bootstrap (~35 s).
  EXPECT_GE(t.state_time(TaskState::scheduling),
            session.services().get(svc).state_time(ServiceState::running));
}

TEST_F(TaskManagerTest, ServiceFailureBreaksDependentTask) {
  auto svc_desc = ServiceDescription{};
  svc_desc.program = "inference";
  svc_desc.config = json::Value::object({{"model", "llama-8b"}});
  svc_desc.gpus = 1;
  svc_desc.ready_timeout = 2.0;  // guaranteed bootstrap failure
  const auto svc = session.services().submit(*pilot, svc_desc);

  auto task_desc = quick_task();
  task_desc.requires_services = {svc};
  const auto task = session.tasks().submit(*pilot, task_desc);
  session.run();
  EXPECT_EQ(session.tasks().get(task).state(), TaskState::failed);
}

TEST_F(TaskManagerTest, StagingOverlapsQueueWaitAndGatesLaunch) {
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("input-data", 5e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);  // ~5 s transfer

  auto desc = quick_task(1.0);
  desc.staging.push_back(StagingDirective::in("input-data"));
  desc.staging.push_back(StagingDirective::out("result-data"));
  desc.payload.set("output_bytes", 2e6);
  const auto uid = session.tasks().submit(*pilot, desc);
  session.run();

  const auto& task = session.tasks().get(uid);
  EXPECT_EQ(task.state(), TaskState::done);
  EXPECT_GE(task.state_time(TaskState::staging_input), 0.0);
  EXPECT_GE(task.state_time(TaskState::staging_output), 0.0);
  // Staging overlaps the queue wait: the task enters SCHEDULING
  // immediately (no serialization behind the 5 GB transfer)...
  EXPECT_LT(task.duration(TaskState::staging_input, TaskState::scheduling),
            0.5);
  // ...but launch waits for the data: the granted slot is held until
  // the transfer lands, so scheduled -> launching spans it.
  EXPECT_GT(task.duration(TaskState::scheduled, TaskState::launching), 4.0);
  EXPECT_TRUE(session.data().available_in("input-data", "delta"));
  EXPECT_TRUE(session.data().available_in("result-data", "delta"));
}

TEST_F(TaskManagerTest, StageInFailureFailsTask) {
  auto desc = quick_task();
  desc.staging.push_back(StagingDirective::in("missing-data"));
  const auto uid = session.tasks().submit(*pilot, desc);
  session.run();
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::failed);
  EXPECT_NE(session.tasks().get(uid).error().find("stage-in"),
            std::string::npos);
}

TEST_F(TaskManagerTest, CancelBeforePlacementSucceeds) {
  // Fill the pilot so the victim queues.
  std::vector<TaskDescription> hogs(16, quick_task(50.0));
  for (auto& hog : hogs) hog.cores = 16;
  session.tasks().submit_all(*pilot, hogs);
  const auto victim = session.tasks().submit(*pilot, quick_task());
  session.run_until(5.0);
  EXPECT_EQ(session.tasks().get(victim).state(), TaskState::scheduling);
  EXPECT_TRUE(session.tasks().cancel(victim));
  session.run();
  EXPECT_EQ(session.tasks().get(victim).state(), TaskState::canceled);
}

TEST_F(TaskManagerTest, CancelAfterRunningRefused) {
  const auto uid = session.tasks().submit(*pilot, quick_task(30.0));
  session.run_until(10.0);
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::running);
  EXPECT_FALSE(session.tasks().cancel(uid));
  session.run();
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
}

TEST_F(TaskManagerTest, FunctionPayloadRunsRealCode) {
  session.executor().functions().register_fn(
      "square_sum", [](ExecutionContext&, const json::Value& args) {
        double sum = 0;
        for (const auto& v : args.at("values").as_array()) {
          sum += v.as_double() * v.as_double();
        }
        return json::Value::object({{"sum", sum}});
      });
  auto desc = quick_task(0.5);
  desc.kind = "function";
  desc.payload = json::Value::object(
      {{"fn", "square_sum"},
       {"args", json::Value::object(
                    {{"values", json::Value::array({1, 2, 3})}})}});
  const auto uid = session.tasks().submit(*pilot, desc);
  session.run();
  const auto& task = session.tasks().get(uid);
  EXPECT_EQ(task.state(), TaskState::done);
  EXPECT_DOUBLE_EQ(task.result().at("output").at("sum").as_double(), 14.0);
}

TEST_F(TaskManagerTest, FunctionExceptionBecomesTaskFailure) {
  session.executor().functions().register_fn(
      "bomb", [](ExecutionContext&, const json::Value&) -> json::Value {
        throw std::runtime_error("kaboom");
      });
  auto desc = quick_task();
  desc.kind = "function";
  desc.payload = json::Value::object({{"fn", "bomb"}});
  const auto uid = session.tasks().submit(*pilot, desc);
  session.run();
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::failed);
  EXPECT_NE(session.tasks().get(uid).error().find("kaboom"),
            std::string::npos);
}

TEST_F(TaskManagerTest, SlotsReleasedAfterCompletion) {
  std::vector<TaskDescription> tasks(32, quick_task(1.0));
  for (auto& t : tasks) {
    t.cores = 8;
    t.gpus = 1;
  }
  session.tasks().submit_all(*pilot, tasks);
  session.run();
  EXPECT_EQ(session.tasks().count_in_state(TaskState::done), 32u);
  for (std::size_t n = 0; n < 2; ++n) {
    EXPECT_EQ(pilot->cluster().node(n).free_cores(), 64u);
    EXPECT_EQ(pilot->cluster().node(n).free_gpus(), 4u);
  }
}

TEST_F(TaskManagerTest, ConcurrencyBoundedByResources) {
  // 2 nodes x 4 GPUs: at most 8 single-GPU tasks run concurrently.
  std::vector<TaskDescription> tasks(24, quick_task(10.0));
  for (auto& t : tasks) t.gpus = 1;
  const auto uids = session.tasks().submit_all(*pilot, tasks);
  session.run();
  // Reconstruct maximum concurrency from the timeline.
  std::vector<std::pair<double, int>> events;
  for (const auto& uid : uids) {
    const auto& task = session.tasks().get(uid);
    events.emplace_back(task.state_time(TaskState::running), +1);
    events.emplace_back(task.state_time(TaskState::done), -1);
  }
  std::sort(events.begin(), events.end());
  int concurrent = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    concurrent += delta;
    peak = std::max(peak, concurrent);
  }
  EXPECT_LE(peak, 8);
  EXPECT_GE(peak, 7);  // and the scheduler actually packs the machine
}

// ---------------------------------------------------------------------------
// Done watchers (when_done)
// ---------------------------------------------------------------------------

TEST_F(TaskManagerTest, WatchersOfOneTaskFireInRegistrationOrder) {
  const auto uid = session.tasks().submit(*pilot, quick_task());
  std::vector<int> fired;
  for (int i = 0; i < 3; ++i) {
    session.tasks().when_done({uid}, [&fired, i](bool ok) {
      EXPECT_TRUE(ok);
      fired.push_back(i);
    });
  }
  session.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST_F(TaskManagerTest, RepeatedTaskInOneWatcherCountsOnce) {
  const auto a = session.tasks().submit(*pilot, quick_task(1.0));
  const auto b = session.tasks().submit(*pilot, quick_task(3.0));
  int fired = 0;
  bool all_ok = false;
  double fired_at = -1.0;
  session.tasks().when_done({a, b, a}, [&](bool ok) {
    ++fired;
    all_ok = ok;
    fired_at = session.now();
  });
  session.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(all_ok);
  EXPECT_GE(fired_at, session.tasks().get(b).state_time(TaskState::done));
  EXPECT_GT(session.tasks().get(b).state_time(TaskState::done),
            session.tasks().get(a).state_time(TaskState::done));
}

TEST_F(TaskManagerTest, SettledWatchersArePostedNotCalledInline) {
  const auto good = session.tasks().submit(*pilot, quick_task());
  const auto bad = session.tasks().submit(*pilot, failing_task());
  session.run();
  ASSERT_EQ(session.tasks().get(good).state(), TaskState::done);
  ASSERT_EQ(session.tasks().get(bad).state(), TaskState::failed);

  std::vector<std::pair<std::string, bool>> fired;
  const auto watch = [&](std::string label) {
    return [&fired, label](bool ok) { fired.emplace_back(label, ok); };
  };
  session.tasks().when_done({}, watch("none"));
  session.tasks().when_done({good}, watch("done"));
  session.tasks().when_done({good, bad}, watch("mixed"));
  EXPECT_TRUE(fired.empty());  // posted, not called inside when_done
  session.run();
  const std::vector<std::pair<std::string, bool>> expected{
      {"none", true}, {"done", true}, {"mixed", false}};
  EXPECT_EQ(fired, expected);
}

TEST_F(TaskManagerTest, FailedOrCanceledMemberReportsFalse) {
  const auto good = session.tasks().submit(*pilot, quick_task(2.0));
  const auto victim = session.tasks().submit(*pilot, quick_task(2.0));
  const auto bad = session.tasks().submit(*pilot, failing_task());
  std::vector<std::pair<std::string, bool>> fired;
  const auto watch = [&](std::string label) {
    return [&fired, label](bool ok) { fired.emplace_back(label, ok); };
  };
  session.tasks().when_done({good, victim}, watch("canceled"));
  session.tasks().when_done({bad, good}, watch("failed"));
  session.tasks().when_done({good}, watch("done"));
  EXPECT_TRUE(session.tasks().cancel(victim));
  session.run();
  ASSERT_EQ(session.tasks().get(victim).state(), TaskState::canceled);
  ASSERT_EQ(session.tasks().get(bad).state(), TaskState::failed);
  // All three complete when `good` does, so they fire together, in
  // registration order.
  const std::vector<std::pair<std::string, bool>> expected{
      {"canceled", false}, {"failed", false}, {"done", true}};
  EXPECT_EQ(fired, expected);
}

TEST_F(TaskManagerTest, CrashedTaskFiresItsWatcherOnlyAfterTheRestart) {
  session.tasks().set_restart_policy({.max_restarts = 3});
  const auto uid = session.tasks().submit(*pilot, quick_task(10.0));
  auto& injector = session.failures().injector();
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string id = session.cluster("delta").node(i).id();
    injector.inject_at(2.0, sim::FailureKind::node_crash, id);
    injector.inject_at(6.0, sim::FailureKind::node_restore, id);
  }
  int fired = 0;
  bool all_ok = false;
  double fired_at = -1.0;
  session.tasks().when_done({uid}, [&](bool ok) {
    ++fired;
    all_ok = ok;
    fired_at = session.now();
  });
  session.run_until(4.0);
  // Interrupted and backing off: back in SCHEDULING, watcher silent.
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::scheduling);
  EXPECT_EQ(session.timeline().entry_count(uid, "SCHEDULING"), 2u);
  EXPECT_EQ(fired, 0);
  session.run();
  EXPECT_EQ(session.tasks().restarts_total(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(all_ok);
  EXPECT_GE(fired_at, session.tasks().get(uid).state_time(TaskState::done));
  EXPECT_GT(fired_at, 12.0);  // 2 s lost to the crash, 10 s rerun
}

// ---------------------------------------------------------------------------
// Dependency re-check timing
// ---------------------------------------------------------------------------

/// Two 64-core delta nodes whose launches take exactly one second, so the
/// pinned times below are round numbers.
Pilot& round_time_pilot(Session& session) {
  ml::install(session);
  auto profile = platform::delta_profile(2);
  profile.launch.base = common::Distribution::constant(1.0);
  session.add_platform(profile);
  return session.submit_pilot({.platform = "delta", .nodes = 2});
}

/// The whole Timeline, one "time uid state" line per record.
std::vector<std::string> timeline_lines(Session& session) {
  std::vector<std::string> lines;
  for (const auto& record : session.timeline().records()) {
    lines.push_back(strutil::cat(strutil::format_fixed(record.time, 6), " ",
                                 record.entity, " ", record.state));
  }
  return lines;
}

/// Each listed task's final state and the time it entered it.
std::vector<std::string> completion_lines(
    Session& session, const std::vector<std::string>& uids) {
  std::vector<std::string> lines;
  for (const auto& uid : uids) {
    const Task& task = session.tasks().get(uid);
    lines.push_back(strutil::cat(
        uid, " ", to_string(task.state()), " ",
        strutil::format_fixed(task.state_time(task.state()), 6)));
  }
  return lines;
}

// A waiting task is released by the re-check that the next task or
// service transition posts, and where that re-check runs among the
// events of the same instant decides the order of everything after it.
// Each case pins the whole Timeline and every completion time.
TEST(DependencyRecheck, ReleaseOrderIsPinned) {
  {
    // The dependent is submitted in the instant its dependency's payload
    // finishes (t = 3), before the payload event runs: it evaluates
    // while the dependency is still STAGING_OUTPUT and waits. The
    // posted stage-out completes the dependency and hands its node to
    // the queued task in that same instant; the dependent enters
    // SCHEDULING before that grant is delivered.
    Session session{SessionConfig{.seed = 9}};
    Pilot& pilot = round_time_pilot(session);
    auto producer = quick_task(2.0);
    producer.cores = 64;
    producer.staging.push_back(StagingDirective::out("produced"));
    auto blocker = quick_task(5.0);
    blocker.cores = 64;
    auto queued = quick_task(1.0);
    queued.cores = 64;
    const auto uids =
        session.tasks().submit_all(pilot, {producer, blocker, queued});
    std::string dependent;
    session.loop().call_at(3.0, [&] {
      auto desc = quick_task(1.0);
      desc.depends_on = {uids[0]};
      dependent = session.tasks().submit(pilot, desc);
    });
    session.run();
    const std::vector<std::string> timeline{
        "0.000000 pilot.000000 CREATED",
        "0.000000 task.000000 CREATED",
        "0.000000 task.000001 CREATED",
        "0.000000 task.000002 CREATED",
        "0.000000 pilot.000000 ACTIVE",
        "0.000000 task.000000 SCHEDULING",
        "0.000000 task.000001 SCHEDULING",
        "0.000000 task.000002 SCHEDULING",
        "0.000000 task.000000 SCHEDULED",
        "0.000000 task.000000 LAUNCHING",
        "0.000000 task.000001 SCHEDULED",
        "0.000000 task.000001 LAUNCHING",
        "1.000000 task.000000 RUNNING",
        "1.000000 task.000001 RUNNING",
        "3.000000 task.000003 CREATED",
        "3.000000 task.000000 STAGING_OUTPUT",
        "3.000000 task.000003 WAITING",
        "3.000000 task.000000 DONE",
        "3.000000 task.000003 SCHEDULING",
        "3.000000 task.000002 SCHEDULED",
        "3.000000 task.000002 LAUNCHING",
        "4.000000 task.000002 RUNNING",
        "5.000000 task.000002 DONE",
        "5.000000 task.000003 SCHEDULED",
        "5.000000 task.000003 LAUNCHING",
        "6.000000 task.000001 DONE",
        "6.000000 task.000003 RUNNING",
        "7.000000 task.000003 DONE",
    };
    EXPECT_EQ(timeline_lines(session), timeline);
    const std::vector<std::string> completions{
        "task.000000 DONE 3.000000",
        "task.000001 DONE 6.000000",
        "task.000002 DONE 5.000000",
        "task.000003 DONE 7.000000",
    };
    EXPECT_EQ(
        completion_lines(session, {uids[0], uids[1], uids[2], dependent}),
        completions);
  }
  {
    // One submit_all batch: a task staging in a resident input, an
    // oversized task, and a sibling that depends on the oversized one
    // (uids are minted per session in creation order, so the second
    // member is task.000001). The sibling waits, the oversized task
    // fails in the batch's schedule pass, and the sibling fails on the
    // re-check, ahead of the stager's posted stage-in and grant.
    Session session{SessionConfig{.seed = 9}};
    Pilot& pilot = round_time_pilot(session);
    session.data().register_dataset("resident", 1e6, "delta");
    auto stager = quick_task(1.0);
    stager.staging.push_back(StagingDirective::in("resident"));
    auto oversized = quick_task(1.0);
    oversized.cores = 1000;
    auto sibling = quick_task(1.0);
    sibling.depends_on = {"task.000001"};
    const auto uids =
        session.tasks().submit_all(pilot, {stager, oversized, sibling});
    session.run();
    const std::vector<std::string> timeline{
        "0.000000 pilot.000000 CREATED",
        "0.000000 task.000000 CREATED",
        "0.000000 task.000001 CREATED",
        "0.000000 task.000002 CREATED",
        "0.000000 pilot.000000 ACTIVE",
        "0.000000 task.000000 STAGING_INPUT",
        "0.000000 task.000000 SCHEDULING",
        "0.000000 task.000002 WAITING",
        "0.000000 task.000001 FAILED",
        "0.000000 task.000002 FAILED",
        "0.000000 task.000000 SCHEDULED",
        "0.000000 task.000000 LAUNCHING",
        "1.000000 task.000000 RUNNING",
        "2.000000 task.000000 DONE",
    };
    EXPECT_EQ(timeline_lines(session), timeline);
    const std::vector<std::string> completions{
        "task.000000 DONE 2.000000",
        "task.000001 FAILED 0.000000",
        "task.000002 FAILED 0.000000",
    };
    EXPECT_EQ(completion_lines(session, uids), completions);
  }
  {
    // A task gated on a service waits through the service's bootstrap
    // and enters SCHEDULING on the re-check its RUNNING transition posts.
    Session session{SessionConfig{.seed = 9}};
    Pilot& pilot = round_time_pilot(session);
    ServiceDescription svc_desc;
    svc_desc.name = "svc";
    svc_desc.program = "inference";
    svc_desc.config = json::Value::object({{"model", "noop"}});
    svc_desc.gpus = 1;
    const auto svc = session.services().submit(pilot, svc_desc);
    auto gated = quick_task(1.0);
    gated.requires_services = {svc};
    const auto task = session.tasks().submit(pilot, gated);
    session.tasks().when_done(
        {task}, [&](bool) { session.services().stop_all(); });
    session.run();
    const std::vector<std::string> timeline{
        "0.000000 pilot.000000 CREATED",
        "0.000000 svc.000000 CREATED",
        "0.000000 task.000000 CREATED",
        "0.000000 pilot.000000 ACTIVE",
        "0.000000 svc.000000 SCHEDULING",
        "0.000000 task.000000 WAITING",
        "0.000000 svc.000000 SCHEDULED",
        "0.000000 svc.000000 LAUNCHING",
        "1.000000 svc.000000 INITIALIZING",
        "1.050000 svc.000000 PUBLISHING",
        "1.153644 svc.000000 RUNNING",
        "1.153644 task.000000 SCHEDULING",
        "1.153644 task.000000 SCHEDULED",
        "1.153644 task.000000 LAUNCHING",
        "2.153644 task.000000 RUNNING",
        "3.153644 task.000000 DONE",
        "3.153644 svc.000000 DRAINING",
        "3.153644 svc.000000 STOPPED",
    };
    EXPECT_EQ(timeline_lines(session), timeline);
    const std::vector<std::string> completions{
        "task.000000 DONE 3.153644",
    };
    EXPECT_EQ(completion_lines(session, {task}), completions);
  }
}

}  // namespace
