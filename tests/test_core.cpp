// Unit tests for core state machines, descriptions, entities, the
// scheduler and the data manager.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/core/data_manager.hpp"
#include "ripple/core/descriptions.hpp"
#include "ripple/core/entities.hpp"
#include "ripple/core/entity_table.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/core/session.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/failure_injector.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

// ---------------------------------------------------------------------------
// State machines
// ---------------------------------------------------------------------------

TEST(TaskStates, HappyPathIsLegal) {
  const TaskState path[] = {
      TaskState::created,  TaskState::waiting,   TaskState::staging_input,
      TaskState::scheduling, TaskState::scheduled, TaskState::launching,
      TaskState::running,  TaskState::staging_output, TaskState::done};
  for (std::size_t i = 0; i + 1 < std::size(path); ++i) {
    EXPECT_TRUE(transition_allowed(path[i], path[i + 1]))
        << to_string(path[i]) << " -> " << to_string(path[i + 1]);
  }
}

TEST(TaskStates, ShortcutsAndFailures) {
  EXPECT_TRUE(transition_allowed(TaskState::created, TaskState::scheduling));
  EXPECT_TRUE(transition_allowed(TaskState::running, TaskState::done));
  EXPECT_TRUE(transition_allowed(TaskState::running, TaskState::failed));
  EXPECT_TRUE(transition_allowed(TaskState::created, TaskState::canceled));
  EXPECT_FALSE(transition_allowed(TaskState::done, TaskState::running));
  EXPECT_FALSE(transition_allowed(TaskState::failed, TaskState::done));
  EXPECT_FALSE(
      transition_allowed(TaskState::scheduling, TaskState::running));
  EXPECT_FALSE(transition_allowed(TaskState::done, TaskState::failed));
}

TEST(ServiceStates, BootstrapPipelineIsLegal) {
  const ServiceState path[] = {
      ServiceState::created,      ServiceState::scheduling,
      ServiceState::scheduled,    ServiceState::launching,
      ServiceState::initializing, ServiceState::publishing,
      ServiceState::running,      ServiceState::draining,
      ServiceState::stopped};
  for (std::size_t i = 0; i + 1 < std::size(path); ++i) {
    EXPECT_TRUE(transition_allowed(path[i], path[i + 1]));
  }
}

TEST(ServiceStates, RemoteAndRestartPaths) {
  // Remote persistent services go straight to running.
  EXPECT_TRUE(
      transition_allowed(ServiceState::created, ServiceState::running));
  // Restart: failed services may re-enter scheduling.
  EXPECT_TRUE(
      transition_allowed(ServiceState::failed, ServiceState::scheduling));
  EXPECT_FALSE(
      transition_allowed(ServiceState::stopped, ServiceState::scheduling));
  EXPECT_FALSE(
      transition_allowed(ServiceState::running, ServiceState::launching));
}

TEST(PilotStates, Lifecycle) {
  EXPECT_TRUE(transition_allowed(PilotState::created, PilotState::active));
  EXPECT_TRUE(transition_allowed(PilotState::active, PilotState::done));
  EXPECT_TRUE(transition_allowed(PilotState::created, PilotState::failed));
  EXPECT_FALSE(transition_allowed(PilotState::done, PilotState::active));
  EXPECT_TRUE(is_terminal(PilotState::canceled));
}

// ---------------------------------------------------------------------------
// Descriptions
// ---------------------------------------------------------------------------

TEST(Descriptions, ValidationCatchesNonsense) {
  PilotDescription pilot;
  EXPECT_THROW(pilot.validate(), Error);  // no platform
  pilot.platform = "delta";
  pilot.nodes = 0;
  EXPECT_THROW(pilot.validate(), Error);
  pilot.nodes = 2;
  EXPECT_NO_THROW(pilot.validate());

  TaskDescription task;
  task.cores = 0;
  task.gpus = 0;
  EXPECT_THROW(task.validate(), Error);  // no resources
  task.gpus = 1;
  EXPECT_NO_THROW(task.validate());

  ServiceDescription svc;
  svc.ready_timeout = 0;
  EXPECT_THROW(svc.validate(), Error);
  svc.ready_timeout = 60;
  svc.heartbeat_misses = 0;
  EXPECT_THROW(svc.validate(), Error);
  svc.heartbeat_misses = 3;
  EXPECT_NO_THROW(svc.validate());
}

// ---------------------------------------------------------------------------
// Entities
// ---------------------------------------------------------------------------

TEST(TaskEntity, StateTimestampsAndDurations) {
  Task task("task.x", TaskDescription{});
  task.set_state(TaskState::scheduling, 1.0);
  task.set_state(TaskState::scheduled, 3.0);
  task.set_state(TaskState::launching, 3.0);
  task.set_state(TaskState::running, 5.5);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::scheduling), 1.0);
  EXPECT_DOUBLE_EQ(task.duration(TaskState::scheduling, TaskState::running),
                   4.5);
  EXPECT_DOUBLE_EQ(task.state_time(TaskState::done), -1.0);
  EXPECT_THROW((void)task.duration(TaskState::created, TaskState::done),
               Error);
}

TEST(TaskEntity, IllegalTransitionThrows) {
  Task task("task.x", TaskDescription{});
  task.set_state(TaskState::scheduling, 0.0);
  EXPECT_THROW(task.set_state(TaskState::running, 1.0), Error);
  task.set_state(TaskState::canceled, 1.0);
  EXPECT_THROW(task.set_state(TaskState::scheduling, 2.0), Error);
}

TEST(ServiceEntity, BootstrapTimingComplete) {
  Service svc("svc.x", ServiceDescription{});
  EXPECT_FALSE(svc.bootstrap().complete());
  svc.bootstrap().launch = 2.0;
  svc.bootstrap().init = 30.0;
  svc.bootstrap().publish = 0.2;
  EXPECT_TRUE(svc.bootstrap().complete());
  EXPECT_DOUBLE_EQ(svc.bootstrap().total(), 32.2);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 5}};
  Pilot* pilot = nullptr;

  void SetUp() override {
    session.add_platform(platform::delta_profile(2));  // 2 nodes, 4 GPUs ea
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 2});
  }

  ScheduleRequest request(const std::string& uid, std::size_t cores,
                          std::size_t gpus, int priority,
                          std::vector<std::string>& order) {
    ScheduleRequest r;
    r.uid = uid;
    r.cores = cores;
    r.gpus = gpus;
    r.priority = priority;
    r.granted = [&order, uid](platform::Slot, platform::Node*) {
      order.push_back(uid);
    };
    return r;
  }
};

TEST_F(SchedulerTest, GrantsByPriorityThenFifo) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  // Saturate: each node has 64 cores; take them all.
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("low", 8, 0, 0, order));
  sched.submit(pilot->uid(), request("high", 8, 0, 5, order));
  session.run();
  ASSERT_EQ(order.size(), 2u);  // hogs hold everything
  EXPECT_EQ(sched.queue_length(pilot->uid()), 2u);

  // Free one node: the higher-priority request goes first.
  sched.release(pilot->uid(),
                platform::Slot{"delta:node0000", 64, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], "high");
  EXPECT_EQ(order[3], "low");
}

TEST_F(SchedulerTest, BackfillOvertakesBlockedHead) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("big1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big3", 64, 0, 0, order));  // blocked
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  session.run();
  // backfill (default): small overtakes the blocked big3... but only
  // if capacity remains; both nodes are full, so nothing moves.
  EXPECT_EQ(order.size(), 2u);
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 64, 0, 0.0});
  session.run();
  // big3 takes the freed node; small backfills nothing -> still queued?
  // node0000 is full again; small needs 1 core -> no room. Release 1.
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "big3");
  sched.release(pilot->uid(), platform::Slot{"delta:node0001", 64, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[3], "small");
}

TEST_F(SchedulerTest, FifoPolicyBlocksQueueBehindHead) {
  session.scheduler().set_policy(SchedulerPolicy::fifo);
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("big1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big3", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  session.run();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(sched.queue_length(pilot->uid()), 2u);
  // Under FIFO, small may NOT run while big3 blocks the head even
  // though a core could be free after a partial release.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  EXPECT_EQ(order.size(), 2u);
}

TEST_F(SchedulerTest, CancelQueuedRequest) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  const auto hog = sched.submit(pilot->uid(), request("hog", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  const auto victim =
      sched.submit(pilot->uid(), request("victim", 64, 0, 0, order));
  session.run();
  EXPECT_TRUE(sched.cancel(pilot->uid(), victim));
  EXPECT_FALSE(sched.cancel(pilot->uid(), victim));
  EXPECT_FALSE(sched.cancel(pilot->uid(), hog));  // already granted
  EXPECT_EQ(sched.queue_length(pilot->uid()), 0u);
}

TEST_F(SchedulerTest, ImpossibleRequestRejectedUpFront) {
  std::vector<std::string> order;
  EXPECT_THROW(session.scheduler().submit(
                   pilot->uid(), request("huge", 1000, 0, 0, order)),
               Error);
  EXPECT_THROW(session.scheduler().submit(
                   pilot->uid(), request("many-gpu", 1, 16, 0, order)),
               Error);
}

TEST_F(SchedulerTest, NeverOversubscribesNodes) {
  // Property: whatever the arrival pattern, allocated cores/gpus on any
  // node never exceed its spec.
  auto& sched = session.scheduler();
  common::Rng rng(21);
  int active = 0;
  std::function<void(int)> spawn = [&](int i) {
    ScheduleRequest r;
    r.uid = "t" + std::to_string(i);
    r.cores = static_cast<std::size_t>(rng.uniform_int(1, 32));
    r.gpus = static_cast<std::size_t>(rng.uniform_int(0, 4));
    r.granted = [&, r](platform::Slot slot, platform::Node* node) {
      ++active;
      EXPECT_LE(node->spec().cores, 64u);
      // Hold for a random time, then release and check invariants.
      session.loop().call_after(
          rng.uniform(0.1, 5.0), [&, slot] {
            sched.release(pilot->uid(), slot);
            --active;
          });
    };
    sched.submit(pilot->uid(), std::move(r));
  };
  for (int i = 0; i < 200; ++i) spawn(i);
  session.run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sched.granted_total(), 200u);
  for (std::size_t n = 0; n < 2; ++n) {
    EXPECT_EQ(pilot->cluster().node(n).free_cores(), 64u);
    EXPECT_EQ(pilot->cluster().node(n).free_gpus(), 4u);
  }
}

// ---------------------------------------------------------------------------
// DataManager
// ---------------------------------------------------------------------------

class DataManagerTest : public ::testing::Test {
 protected:
  Runtime runtime{11};
  DataManager data{runtime};
};

TEST_F(DataManagerTest, RegisterAndQuery) {
  data.register_dataset("images", 1.6e12, "lab");
  EXPECT_TRUE(data.has("images"));
  EXPECT_FALSE(data.has("ghost"));
  EXPECT_TRUE(data.available_in("images", "lab"));
  EXPECT_FALSE(data.available_in("images", "delta"));
  EXPECT_DOUBLE_EQ(data.dataset("images").bytes, 1.6e12);
  EXPECT_THROW((void)data.dataset("ghost"), Error);
}

TEST_F(DataManagerTest, StagePresentIsInstant) {
  data.register_dataset("d", 1e9, "delta");
  bool done = false;
  data.stage({{"d", "delta"}}, [&](bool ok, const std::string&) {
    EXPECT_TRUE(ok);
    EXPECT_DOUBLE_EQ(runtime.loop().now(), 0.0);
    done = true;
  });
  runtime.loop().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(data.transfers(), 0u);
}

TEST_F(DataManagerTest, TransferTimeFollowsBandwidth) {
  data.register_dataset("blob", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);  // 10 s of payload time
  double duration = -1;
  data.stage({{"blob", "delta"}}, [&](bool ok, const std::string&) {
    EXPECT_TRUE(ok);
    duration = runtime.loop().now();  // the stage started at t = 0
  });
  runtime.loop().run();
  EXPECT_GT(duration, 10.0);
  EXPECT_LT(duration, 15.0);  // + setup latency
  EXPECT_TRUE(data.available_in("blob", "delta"));
  EXPECT_EQ(data.transfers(), 1u);
  EXPECT_DOUBLE_EQ(data.bytes_moved(), 10e9);
}

TEST_F(DataManagerTest, ConcurrentStagesShareOneTransfer) {
  data.register_dataset("shared", 1e9, "lab");
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    data.stage({{"shared", "delta"}}, [&](bool ok, const std::string&) {
      EXPECT_TRUE(ok);
      ++completions;
    });
  }
  runtime.loop().run();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(data.transfers(), 1u);  // piggybacked
}

TEST_F(DataManagerTest, UnknownDatasetFails) {
  bool ok = true;
  data.stage({{"ghost", "delta"}}, [&](bool result, const std::string&) {
    ok = result;
  });
  runtime.loop().run();
  EXPECT_FALSE(ok);
}

// ---------------------------------------------------------------------------
// Session-level entity management
// ---------------------------------------------------------------------------

TEST(SessionEntities, PilotLifecycleAndSummary) {
  Session session({.seed = 1});
  session.add_platform(platform::delta_profile(4));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 3});
  EXPECT_EQ(pilot.nodes().size(), 3u);
  EXPECT_EQ(session.cluster("delta").free_node_count(), 1u);
  session.run();
  EXPECT_EQ(pilot.state(), PilotState::active);

  session.close_pilot(pilot.uid());
  EXPECT_EQ(pilot.state(), PilotState::done);
  EXPECT_EQ(session.cluster("delta").free_node_count(), 4u);
  EXPECT_THROW(session.close_pilot(pilot.uid()), Error);

  const auto summary = session.summary();
  EXPECT_EQ(summary.at("seed").as_int(), 1);
  EXPECT_THROW((void)session.cluster("nonexistent"), Error);
  EXPECT_THROW(session.submit_pilot({.platform = "delta", .nodes = 99}),
               Error);
}

TEST(SessionEntities, DuplicatePlatformRejected) {
  Session session({.seed = 2});
  session.add_platform(platform::delta_profile(2));
  EXPECT_THROW(session.add_platform(platform::delta_profile(2)), Error);
}

// ---------------------------------------------------------------------------
// EntityTable: dense ids in creation order, walks in uid order
// ---------------------------------------------------------------------------

TEST(EntityTable, UidOrderIsNotCreationOrderPastThePad) {
  // Past the six-digit pad a later uid sorts first ("task.1000000" <
  // "task.999999"), so walks that must follow uid order sort by uid.
  struct Record {
    std::string name;
    TaskState current = TaskState::created;
    [[nodiscard]] const std::string& uid() const { return name; }
    [[nodiscard]] TaskState state() const { return current; }
  };
  EntityTable<Record> table("task");
  const EntityId padded = table.emplace(Record{"task.999999"});
  const EntityId past = table.emplace(Record{"task.1000000"});
  const EntityId done = table.emplace(Record{"task.000000", TaskState::done});
  EXPECT_EQ(padded, 0u);
  EXPECT_EQ(done, 2u);
  EXPECT_EQ(table.in_uid_order(), (std::vector<EntityId>{done, past, padded}));
  EXPECT_EQ(table.uids(), (std::vector<std::string>{
                              "task.000000", "task.1000000", "task.999999"}));
  std::vector<EntityId> subset{padded, past};
  table.sort_by_uid(subset);
  EXPECT_EQ(subset, (std::vector<EntityId>{past, padded}));
  EXPECT_EQ(&table.at("task.1000000"), &table[past]);
  EXPECT_EQ(table.count_in_state(TaskState::done), 1u);
  EXPECT_TRUE(table.exists("task.999999"));
  EXPECT_FALSE(table.exists("task.5"));
  EXPECT_THROW((void)table.at("task.5"), Error);
  EXPECT_THROW((void)table.emplace(Record{"task.999999"}), Error);
  EXPECT_EQ(table.uids().size(), 3u);  // the duplicate left no record
}

// ---------------------------------------------------------------------------
// State path: the Timeline and the "state" bus topic
// ---------------------------------------------------------------------------

struct StatePathRun {
  std::vector<metrics::TransitionRecord> records;  ///< the Timeline
  std::vector<metrics::TransitionRecord> events;   ///< the subscriber's
  std::uint64_t published = 0;
  std::uint64_t grant_hash = 0;
  std::uint64_t recovery_hash = 0;
  std::uint64_t completion_hash = common::kFnvOffsetBasis;
  std::uint64_t restarts = 0;
  std::uint64_t speculations = 0;
};

/// Two full-node tasks on three nodes: node 0 straggles, so its task
/// gets a speculative twin, and node 1 crashes under the other task,
/// which restarts on node 2.
StatePathRun run_state_path(bool subscribe) {
  StatePathRun out;
  Session session{SessionConfig{.seed = 23}};
  if (subscribe) {
    session.runtime().pubsub().subscribe(
        "state", [&out](const std::string&, const json::Value& event) {
          out.events.push_back({event.at("uid").as_string(),
                                event.at("kind").as_string(),
                                event.at("state").as_string(),
                                event.at("time").as_double()});
        });
  }
  session.add_platform(platform::delta_profile(3));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 3});
  session.tasks().set_restart_policy({.max_restarts = 3});
  session.tasks().set_speculation(
      {.enabled = true, .latency_multiple = 2.0, .min_delay = 0.5});
  auto& injector = session.failures().injector();
  const auto node = [&session](std::size_t i) {
    return session.cluster("delta").node(i).id();
  };
  injector.inject_at(0.0, sim::FailureKind::slow_node, node(0), 10.0);
  injector.inject_at(3.0, sim::FailureKind::node_crash, node(1));
  injector.inject_at(5.0, sim::FailureKind::node_restore, node(1));

  TaskDescription desc;
  desc.name = "t";
  desc.kind = "modeled";
  desc.cores = 64;
  desc.duration = common::Distribution::constant(4.0);
  const auto uids = session.tasks().submit_all(pilot, {desc, desc});
  session.run();

  out.records = session.timeline().records();
  out.published = session.runtime().pubsub().published();
  out.grant_hash = session.scheduler().grant_log_hash();
  out.recovery_hash = session.tasks().recovery_log_hash();
  for (const auto& uid : uids) {
    const Task& task = session.tasks().get(uid);
    out.completion_hash = common::fnv1a(out.completion_hash, uid);
    out.completion_hash = common::fnv1a(
        out.completion_hash,
        strutil::format_fixed(task.state_time(TaskState::done), 9));
  }
  out.restarts = session.tasks().restarts_total();
  out.speculations = session.tasks().speculations();
  return out;
}

TEST(StatePath, SubscriberSeesTheTimelineOneForOne) {
  const StatePathRun observed = run_state_path(/*subscribe=*/true);
  EXPECT_GE(observed.restarts, 1u);
  EXPECT_GE(observed.speculations, 1u);
  ASSERT_FALSE(observed.records.empty());
  ASSERT_EQ(observed.events.size(), observed.records.size());
  for (std::size_t i = 0; i < observed.records.size(); ++i) {
    const auto& record = observed.records[i];
    const auto& event = observed.events[i];
    EXPECT_EQ(event.entity, record.entity) << i;
    EXPECT_EQ(event.kind, record.kind) << i;
    EXPECT_EQ(event.state, record.state) << i;
    EXPECT_EQ(event.time, record.time) << i;
  }
  EXPECT_EQ(observed.published, observed.records.size());

  // A subscriber only observes: the same seed without one records the
  // same Timeline, grants, recoveries and completions, and publishes
  // nothing.
  const StatePathRun quiet = run_state_path(/*subscribe=*/false);
  EXPECT_TRUE(quiet.events.empty());
  EXPECT_EQ(quiet.published, 0u);
  ASSERT_EQ(quiet.records.size(), observed.records.size());
  for (std::size_t i = 0; i < quiet.records.size(); ++i) {
    EXPECT_EQ(quiet.records[i].entity, observed.records[i].entity) << i;
    EXPECT_EQ(quiet.records[i].state, observed.records[i].state) << i;
    EXPECT_EQ(quiet.records[i].time, observed.records[i].time) << i;
  }
  EXPECT_EQ(quiet.grant_hash, observed.grant_hash);
  EXPECT_EQ(quiet.recovery_hash, observed.recovery_hash);
  EXPECT_EQ(quiet.completion_hash, observed.completion_hash);
}

}  // namespace
