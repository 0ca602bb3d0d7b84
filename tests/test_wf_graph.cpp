// Tests for the DAG workflow engine: graph validation, frontier
// release with overlapping branches, conditional pruning with lineage
// release, dynamic expansion (including idempotent spawn under
// injected failures), hyperopt-as-a-graph, and the determinism of the
// graph event hash across reruns.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "ripple/common/error.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/core/session.hpp"
#include "ripple/sim/failure_injector.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/graph.hpp"
#include "ripple/wf/hyperopt_graph.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;
using namespace ripple::wf;

TaskDescription modeled(double seconds) {
  TaskDescription desc;
  desc.kind = "modeled";
  desc.cores = 1;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

Stage task_stage(const std::string& name, double seconds,
                 std::size_t tasks = 1) {
  Stage stage;
  stage.name = name;
  for (std::size_t i = 0; i < tasks; ++i) {
    stage.tasks.push_back(modeled(seconds));
  }
  return stage;
}

class GraphTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 77}};
  Pilot* pilot = nullptr;
  std::unique_ptr<WorkflowManager> workflows;

  void SetUp() override {
    session.add_platform(platform::delta_profile(4));
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 4});
    workflows = std::make_unique<WorkflowManager>(session);
  }
};

// --- validation ------------------------------------------------------------

TEST(GraphValidate, RejectsDependencyCycleWithPath) {
  Graph graph("cyclic");
  graph.add(task_stage("a", 1.0));
  graph.add(task_stage("b", 1.0));
  graph.add(task_stage("c", 1.0));
  graph.depend("a", "b");
  graph.depend("b", "c");
  graph.depend("c", "a");
  try {
    graph.validate();
    FAIL() << "expected a cycle error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dependency cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("a -> b -> c -> a"), std::string::npos) << what;
  }
}

TEST(GraphValidate, RejectsConsumedDatasetNoAncestorProduces) {
  Graph graph("orphan");
  Stage produce = task_stage("produce", 1.0);
  produce.produces = {"features"};
  graph.add(produce);
  Stage train = task_stage("train", 1.0);
  train.consumes = {"labels"};  // nobody produces this
  graph.add(train);
  graph.depend("produce", "train");
  try {
    graph.validate();
    FAIL() << "expected a missing-producer error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("consumes 'labels'"), std::string::npos) << what;
    EXPECT_NE(what.find("produce -> train"), std::string::npos) << what;
  }

  // The same dataset admitted as external (e.g. already registered
  // with the session) passes.
  graph.validate([](const std::string&) { return true; });

  // And an ancestor-produced dataset passes without the predicate.
  Graph ok("ok");
  ok.add(produce);
  Stage consume = task_stage("consume", 1.0);
  consume.consumes = {"features"};
  ok.add(consume);
  ok.depend("produce", "consume");
  ok.validate();
}

TEST(GraphValidate, ApiGuards) {
  Graph graph("guards");
  graph.add(task_stage("a", 1.0));
  EXPECT_THROW(graph.add(task_stage("a", 1.0)), Error);  // duplicate key
  EXPECT_THROW(graph.depend("a", "a"), Error);           // self-edge
  EXPECT_THROW(graph.depend("a", "missing"), Error);     // unknown node
}

TEST(GraphValidate, FromPipelineBuildsLinearChain) {
  Pipeline pipeline;
  pipeline.name = "chain";
  Stage s1 = task_stage("one", 1.0, 4);
  s1.unblock_next_after = 2;
  pipeline.stages = {s1, task_stage("two", 1.0), task_stage("two", 1.0)};

  const Graph graph = Graph::from_pipeline(pipeline);
  ASSERT_EQ(graph.nodes().size(), 3u);
  ASSERT_EQ(graph.edges().size(), 2u);
  EXPECT_EQ(graph.edges()[0].after_tasks, 2u);  // one's threshold
  EXPECT_EQ(graph.edges()[1].after_tasks, kAfterAllTasks);
  // Duplicate stage names are re-keyed but keep their reported name.
  EXPECT_EQ(graph.nodes()[2].stage.name, "two#2");
  EXPECT_EQ(graph.nodes()[2].display, "two");
}

// --- frontier execution ----------------------------------------------------

TEST_F(GraphTest, DiamondBranchesOverlap) {
  Graph graph("diamond");
  graph.add(task_stage("src", 1.0));
  graph.add(task_stage("left", 10.0));
  graph.add(task_stage("right", 10.0));
  graph.add(task_stage("sink", 1.0));
  graph.depend("src", "left");
  graph.depend("src", "right");
  graph.depend("left", "sink");
  graph.depend("right", "sink");

  GraphResult result;
  workflows->run_graph(graph, *pilot,
                       [&](const GraphResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.tasks_done, 4u);
  ASSERT_EQ(result.node_names.size(), 4u);
  // left and right ran concurrently: far below the 22 s (plus launch
  // overheads) their serialization would cost.
  EXPECT_LT(result.makespan, 19.0);
  // But the sink joined on BOTH branches: above one branch's 11 s.
  EXPECT_GT(result.makespan, 11.0);
  EXPECT_FALSE(result.event_log.empty());
  EXPECT_EQ(workflows->graph_results().at("diamond").event_hash,
            result.event_hash);
}

TEST_F(GraphTest, EmptyGraphRejected) {
  GraphResult result;
  EXPECT_THROW(workflows->run_graph(Graph("empty"), *pilot,
                                    [&](const GraphResult& r) { result = r; }),
               Error);
}

TEST_F(GraphTest, ConditionalPruneReleasesSubtreeLineage) {
  session.data().register_dataset("branch-input", 1e9, "archive");
  session.data().catalog().pin("branch-input", "archive");

  Graph graph("choose");
  Stage chooser = task_stage("chooser", 2.0);
  GraphNode chooser_node;
  chooser_node.stage = chooser;
  chooser_node.select = [](const NodeOutcome&) {
    return std::vector<std::string>{"win"};
  };
  graph.add(std::move(chooser_node));
  graph.add(task_stage("win", 2.0));
  Stage lose = task_stage("lose", 2.0);
  lose.consumes = {"branch-input"};
  graph.add(lose);
  Stage lose_child = task_stage("lose-child", 2.0);
  lose_child.consumes = {"branch-input"};
  graph.add(lose_child);
  graph.depend("chooser", "win", {.conditional = true});
  graph.depend("chooser", "lose", {.conditional = true});
  graph.depend("lose", "lose-child");

  GraphResult result;
  workflows->run_graph(graph, *pilot,
                       [&](const GraphResult& r) { result = r; });
  // Both losing nodes hold lineage references until the run resolves.
  EXPECT_EQ(session.data().catalog().consumers_left("branch-input"), 2u);
  session.run();

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.nodes_pruned, 2u);  // lose + its dependent child
  EXPECT_EQ(result.node_names,
            (std::vector<std::string>{"chooser", "win"}));
  // The pruned subtree released its refs: the dataset is evictable
  // again once its explicit pin drops.
  EXPECT_EQ(session.data().catalog().consumers_left("branch-input"), 0u);
  session.data().catalog().unpin("branch-input", "archive");
  EXPECT_EQ(session.data().catalog().pins("branch-input", "archive"), 0u);
}

TEST_F(GraphTest, PruneAbandonsInFlightFrontierPrefetch) {
  // Regression: the frontier prefetch fired for a conditional successor
  // used to keep flying after the successor was pruned — the bytes
  // landed in the compute zone for a consumer that no longer existed,
  // with the source pins and store reservation held for the whole
  // transfer. A prune must abandon the in-flight speculation.
  session.data().register_dataset("pruned-input", 10e9, "archive");

  Graph graph("choose-prefetch");
  GraphNode chooser_node;
  chooser_node.stage = task_stage("chooser", 2.0);
  chooser_node.select = [](const NodeOutcome&) {
    return std::vector<std::string>{"win"};
  };
  graph.add(std::move(chooser_node));
  graph.add(task_stage("win", 2.0));
  Stage lose = task_stage("lose", 2.0);
  lose.consumes = {"pruned-input"};
  graph.add(lose);
  graph.depend("chooser", "win", {.conditional = true});
  graph.depend("chooser", "lose", {.conditional = true});

  GraphResult result;
  workflows->run_graph(graph, *pilot,
                       [&](const GraphResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.nodes_pruned, 1u);
  // The 8 s prefetch toward delta was still in flight when the 2 s
  // chooser pruned its consumer: it was cancelled, not landed.
  EXPECT_GE(session.data().prefetches_started(), 1u);
  EXPECT_GE(session.data().cancelled_transfers(), 1u);
  EXPECT_FALSE(session.data().available_in("pruned-input", "delta"));
  // Its source pin and destination reservation were returned.
  EXPECT_EQ(session.data().catalog().pins("pruned-input", "archive"), 0u);
  EXPECT_DOUBLE_EQ(session.data().catalog().store("delta").reserved, 0.0);
  // And the revocation is part of the deterministic event stream.
  bool saw_abandon = false;
  for (const auto& line : result.event_log) {
    if (line.find("abandon_prefetch pruned-input delta") !=
        std::string::npos) {
      saw_abandon = true;
    }
  }
  EXPECT_TRUE(saw_abandon);
}

TEST_F(GraphTest, FailureReleasesUnstartedLineage) {
  session.data().register_dataset("late-input", 1e9, "archive");

  Graph graph("failing");
  Stage bad = task_stage("bad", 1.0);
  bad.tasks[0].kind = "function";
  bad.tasks[0].payload =
      json::Value::object({{"fn", "no-such-function"}});
  graph.add(bad);
  Stage never = task_stage("never", 1.0);
  never.consumes = {"late-input"};
  graph.add(never);
  graph.depend("bad", "never");

  GraphResult result;
  workflows->run_graph(graph, *pilot,
                       [&](const GraphResult& r) { result = r; });
  EXPECT_EQ(session.data().catalog().consumers_left("late-input"), 1u);
  session.run();

  EXPECT_FALSE(result.ok);
  // 'never' never released, but its lineage refs were still dropped.
  EXPECT_EQ(session.data().catalog().consumers_left("late-input"), 0u);
}

// --- dynamic expansion -----------------------------------------------------

TEST_F(GraphTest, RunningNodeSpawnsChildren) {
  // The seed's hook runs inside session.run(), after run_graph has
  // returned the handle it captures.
  std::shared_ptr<WorkflowManager::Handle> handle;
  Graph spawned("spawned");
  GraphNode seed;
  seed.stage = task_stage("seed", 1.0);
  seed.on_complete = [&](const NodeOutcome&) {
    handle->spawn("seed", GraphNode{.stage = task_stage("child-a", 2.0)},
                  {"seed"});
    handle->spawn("seed", GraphNode{.stage = task_stage("child-b", 2.0)},
                  {"seed"});
    handle->spawn("seed", GraphNode{.stage = task_stage("collect", 1.0)},
                  {"child-a", "child-b"});
  };
  spawned.add(std::move(seed));
  GraphResult spawned_result;
  handle = workflows->run_graph(
      spawned, *pilot, [&](const GraphResult& r) { spawned_result = r; });
  session.run();

  EXPECT_TRUE(spawned_result.ok);
  EXPECT_EQ(spawned_result.nodes_spawned, 3u);
  EXPECT_EQ(spawned_result.tasks_done, 4u);
  EXPECT_EQ(spawned_result.node_names,
            (std::vector<std::string>{"seed", "child-a", "child-b",
                                      "collect"}));
  // Spawning into a finished graph is an error.
  EXPECT_TRUE(handle->finished());
  EXPECT_THROW(
      handle->spawn("seed", GraphNode{.stage = task_stage("late", 1.0)}),
      Error);
}

struct FailureRunOutcome {
  GraphResult result;
  std::size_t restarts = 0;
  std::uint64_t recovery_hash = 0;
};

/// A spawning node killed mid-task and restarted re-runs its function
/// payload — the spawn must be idempotent.
FailureRunOutcome run_spawner_under_failure() {
  Session session{SessionConfig{.seed = 31}};
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.tasks().set_restart_policy({.max_restarts = 3});
  WorkflowManager workflows(session);

  std::shared_ptr<WorkflowManager::Handle> handle;
  session.executor().functions().register_fn(
      "spawn-children",
      [&handle](ExecutionContext&, const json::Value&) {
        handle->spawn("spawner",
                      GraphNode{.stage = task_stage("child-a", 3.0)});
        handle->spawn("spawner",
                      GraphNode{.stage = task_stage("child-b", 3.0)});
        return json::Value::object();
      });

  Graph graph("respawn");
  Stage spawner;
  spawner.name = "spawner";
  TaskDescription task = modeled(10.0);
  task.kind = "function";
  task.payload = json::Value::object({{"fn", "spawn-children"}});
  spawner.tasks = {task};
  graph.add(Stage(spawner));

  FailureRunOutcome out;
  handle = workflows.run_graph(
      graph, pilot, [&](const GraphResult& r) { out.result = r; });

  // Kill every node mid-spawner-task; capacity returns at t=6 and the
  // restarted task re-runs its payload, re-spawning the same keys.
  auto& injector = session.failures().injector();
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string id = session.cluster("delta").node(i).id();
    injector.inject_at(2.0, sim::FailureKind::node_crash, id);
    injector.inject_at(6.0, sim::FailureKind::node_restore, id);
  }
  session.run();
  out.restarts = session.tasks().restarts_total();
  out.recovery_hash = session.tasks().recovery_log_hash();
  return out;
}

TEST(GraphFailures, RestartedSpawnerDoesNotDoubleSpawn) {
  const FailureRunOutcome first = run_spawner_under_failure();
  EXPECT_TRUE(first.result.ok);
  EXPECT_GE(first.restarts, 1u);
  // The payload ran at least twice, but only two children exist.
  EXPECT_EQ(first.result.nodes_spawned, 2u);
  EXPECT_EQ(first.result.node_names,
            (std::vector<std::string>{"spawner", "child-a", "child-b"}));
  EXPECT_EQ(first.result.tasks_done, 3u);

  // Same seed, same injected failures: bit-identical recovery log and
  // graph event stream.
  const FailureRunOutcome second = run_spawner_under_failure();
  EXPECT_EQ(first.recovery_hash, second.recovery_hash);
  EXPECT_EQ(first.result.event_hash, second.result.event_hash);
  EXPECT_EQ(first.result.event_log, second.result.event_log);
}

// --- hyperopt as a dynamically-spawned graph -------------------------------

HyperoptGraph::Report run_hyperopt(std::uint64_t seed) {
  Session session{SessionConfig{.seed = seed}};
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  WorkflowManager workflows(session);

  HyperoptGraph::Config config;
  config.name = "hpo";
  config.space = {ParamSpec::log_real("lr", 1e-5, 1e-2),
                  ParamSpec::real("dropout", 0.0, 0.5)};
  config.initial = 8;
  config.eta = 2;
  config.make_task = [](const Trial& trial) {
    // Budget doubles per rung (successive-halving semantics).
    return modeled(5.0 * std::pow(2.0, static_cast<double>(trial.rung)));
  };
  config.objective = [](const Trial& trial, const NodeOutcome& outcome) {
    if (!outcome.ok) return 1e9;
    const double lr =
        trial.params.get_or("lr", json::Value(1e-3)).as_double();
    const double dropout =
        trial.params.get_or("dropout", json::Value(0.0)).as_double();
    return std::abs(std::log10(lr) + 3.5) + dropout;
  };

  HyperoptGraph::Report report;
  HyperoptGraph::run(workflows, pilot, config,
                     session.runtime().rng().fork("hpo"),
                     [&](const HyperoptGraph::Report& r) { report = r; });
  session.run();
  return report;
}

TEST(GraphHyperopt, RunsAsDynamicallySpawnedGraph) {
  const HyperoptGraph::Report report = run_hyperopt(101);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.graph.ok);
  // 8 -> 4 -> 2 -> 1 configs across four rungs.
  EXPECT_EQ(report.rungs, 4u);
  EXPECT_EQ(report.trials.size(), 15u);
  // 15 trial nodes + 4 rung collectors, all spawned at runtime.
  EXPECT_EQ(report.graph.nodes_spawned, 19u);
  EXPECT_EQ(report.graph.tasks_done, 16u);  // 15 trials + seed task
  EXPECT_TRUE(report.best.completed);
  EXPECT_LT(report.best.value, 2.0);  // the bowl minimum is near 0

  // Same seed: identical expansion, identical event stream.
  const HyperoptGraph::Report rerun = run_hyperopt(101);
  EXPECT_EQ(report.graph.event_hash, rerun.graph.event_hash);
  EXPECT_EQ(report.best.value, rerun.best.value);
}

TEST(GraphHyperopt, ReleasesTheSearchOnceReported) {
  // The search state holds its run's Handle, and the run's hooks hold
  // the state; unless the report breaks that cycle, the whole run leaks.
  Session session{SessionConfig{.seed = 101}};
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  WorkflowManager workflows(session);
  std::weak_ptr<int> search_alive;
  bool reported = false;
  {
    auto token = std::make_shared<int>(0);
    search_alive = token;
    HyperoptGraph::Config config;
    config.name = "hpo";
    config.space = {ParamSpec::real("x", 0.0, 1.0)};
    config.initial = 4;
    config.make_task = [token](const Trial&) { return modeled(5.0); };
    config.objective = [](const Trial&, const NodeOutcome& outcome) {
      return outcome.ok ? 0.0 : 1e9;
    };
    HyperoptGraph::run(workflows, pilot, std::move(config),
                       session.runtime().rng().fork("hpo"),
                       [&](const HyperoptGraph::Report& report) {
                         reported = report.ok;
                       });
  }
  EXPECT_FALSE(search_alive.expired());  // the running search holds it
  session.run();
  EXPECT_TRUE(reported);
  EXPECT_TRUE(search_alive.expired());
}

// --- determinism across reruns ---------------------------------------------

GraphResult run_seeded_diamond() {
  Session session{SessionConfig{.seed = 67}};
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  WorkflowManager workflows(session);

  Graph graph("seeded-diamond");
  graph.add(task_stage("src", 1.0, 2));
  graph.add(task_stage("left", 8.0, 3));
  graph.add(task_stage("right", 6.0, 3));
  graph.add(task_stage("sink", 1.0));
  graph.depend("src", "left");
  graph.depend("src", "right");
  graph.depend("left", "sink");
  graph.depend("right", "sink");

  GraphResult result;
  workflows.run_graph(graph, pilot,
                      [&](const GraphResult& r) { result = r; });
  session.run();
  return result;
}

TEST(GraphDeterminism, EventHashBitIdenticalAcrossReruns) {
  const GraphResult one = run_seeded_diamond();
  const GraphResult one_again = run_seeded_diamond();

  EXPECT_TRUE(one.ok);
  EXPECT_EQ(one.event_hash, one_again.event_hash);
  EXPECT_EQ(one.event_log, one_again.event_log);
  EXPECT_EQ(one.makespan, one_again.makespan);
}

}  // namespace
