#pragma once

/// \file graph.hpp
/// Dependency-graph workflow structures (the DAG generalization of
/// pipeline.hpp's linear stage chain).
///
/// A Graph is a set of named nodes — each node carries a Stage as its
/// work body (services, consumes/produces contracts, tasks, autoscale)
/// — connected by explicit dependency edges. The WorkflowManager
/// executes it frontier-at-a-time: every node whose predecessors have
/// delivered runs concurrently, so independent branches of a hybrid
/// AI-HPC workflow overlap instead of barrier-stepping through stages.
///
/// Edges come in three flavors:
///   - full (default): the successor releases when the predecessor
///     completes with all tasks done;
///   - threshold (`after_tasks = n`): the successor releases once `n`
///     predecessor tasks are DONE — the DAG form of the pipeline's
///     asynchronous stage coupling (`unblock_next_after`);
///   - conditional (`conditional = true`): the predecessor's
///     BranchSelector picks, at completion time, which conditional
///     successors actually run; unselected branches are pruned along
///     with every descendant that depended on them.
///
/// A running graph may also grow: WorkflowManager::Handle::spawn()
/// inserts child nodes into the live graph (hyperopt search nodes
/// emitting one trial per sampled config). Spawns are idempotent by
/// node key, so a spawning task killed and restarted by the failure
/// injector cannot double-spawn its children.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ripple/wf/pipeline.hpp"

namespace ripple::wf {

/// Edge threshold meaning "every task of the predecessor" (full
/// completion, the default coupling).
inline constexpr std::size_t kAfterAllTasks =
    std::numeric_limits<std::size_t>::max();

/// What a finished node looked like — handed to its BranchSelector and
/// completion hook.
struct NodeOutcome {
  std::string node;  ///< graph key of the finished node
  bool ok = false;   ///< no failed tasks, output contract satisfied
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
  double started_at = 0.0;
  double finished_at = 0.0;
  /// Uids of the node's tasks (submission order); completion hooks use
  /// them to read task results for aggregation or objectives.
  std::vector<std::string> task_uids;
};

/// Picks which *conditional* successors run, by graph key. Called once
/// when the node completes; conditional out-edges whose target is not
/// in the returned list are pruned (with their dependent subtrees).
using BranchSelector =
    std::function<std::vector<std::string>(const NodeOutcome&)>;

/// Observer invoked once when the node completes (after the selector).
/// The hook may spawn children through the run's Handle.
using CompletionHook = std::function<void(const NodeOutcome&)>;

struct GraphNode {
  /// The node's work body: services, data contracts, tasks.
  Stage stage;

  /// Task failures fail the whole graph by default (pipeline
  /// semantics). Tolerant nodes — ensemble members, hyperopt trials —
  /// record failures in their outcome but leave the graph healthy.
  bool tolerate_failures = false;

  BranchSelector select{};       ///< conditional-branch choice, optional
  CompletionHook on_complete{};  ///< completion observer, optional

  /// Name used in results/metrics when it differs from the graph key
  /// (pipeline adapter with duplicate stage names). Empty: use the key.
  std::string display{};
};

/// Per-edge coupling options (designated-initializer friendly).
struct EdgeOptions {
  /// Release the successor once this many predecessor tasks are DONE
  /// (clamped to the predecessor's task count). Default: all of them.
  /// Ignored on conditional edges, which resolve only at completion.
  std::size_t after_tasks = kAfterAllTasks;

  /// Subject to the predecessor's BranchSelector.
  bool conditional = false;
};

struct GraphEdge {
  std::size_t from = 0;  ///< node sequence numbers
  std::size_t to = 0;
  std::size_t after_tasks = kAfterAllTasks;
  bool conditional = false;
};

/// A workflow DAG. Nodes are keyed by their stage name (unique within
/// the graph); sequence numbers (insertion order) provide the
/// deterministic tie-break for frontier release order.
class Graph {
 public:
  std::string name = "graph";
  Placement placement = Placement::locality;
  /// Graph-wide budget of task resubmissions (see
  /// Pipeline::task_retry_budget).
  std::size_t task_retry_budget = 0;
  /// Tenant the run is accounted to (see Pipeline::tenant). Tasks and
  /// services without their own tenant inherit it.
  std::string tenant;

  Graph() = default;
  explicit Graph(std::string graph_name) : name(std::move(graph_name)) {}

  /// Adds a node; its key is `node.stage.name`, which must be unique.
  /// Returns the node's sequence number.
  std::size_t add(GraphNode node);
  std::size_t add(Stage stage);

  /// Declares `to` dependent on `from` (both must already exist).
  void depend(const std::string& from, const std::string& to,
              EdgeOptions options = {});

  [[nodiscard]] const std::vector<GraphNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<GraphEdge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] bool has_node(const std::string& key) const;
  /// Sequence number of `key`; throws when absent.
  [[nodiscard]] std::size_t index_of(const std::string& key) const;

  /// Rejects dependency cycles (error names the cycle path, e.g.
  /// "a -> b -> a") and nodes consuming a dataset no ancestor produces
  /// (error names a root -> node path). `external` says whether a
  /// dataset exists outside the graph (typically
  /// `session.data().has(name)`); when empty, every consumed dataset
  /// must be produced by an ancestor node.
  void validate(
      const std::function<bool(const std::string&)>& external = {}) const;

  /// A linear chain: stage i depends on stage i-1 with
  /// `after_tasks = stages[i-1].unblock_next_after`. This is the
  /// adapter that keeps Pipeline callers running unchanged on the
  /// graph engine. Duplicate stage names get "#<seq>"-suffixed keys
  /// (reported names stay as authored).
  [[nodiscard]] static Graph from_pipeline(const Pipeline& pipeline);

 private:
  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
  std::map<std::string, std::size_t> index_;
};

/// Outcome of a graph run, reported to the completion callback and
/// queryable from the WorkflowManager afterwards.
struct GraphResult {
  std::string graph;
  bool ok = false;
  double makespan = 0.0;  ///< first release to last completion
  /// Started nodes in sequence order (never-released nodes — pruned or
  /// downstream of a failure — are absent).
  std::vector<std::string> node_names;
  std::vector<double> node_durations;
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
  std::size_t tasks_retried = 0;
  std::size_t nodes_spawned = 0;  ///< dynamically added at runtime
  std::size_t nodes_pruned = 0;   ///< unselected branches + descendants
  /// The release/complete/spawn/prune stream in commit order, and its
  /// FNV-1a fingerprint — the determinism oracle benches and suites
  /// compare across reruns.
  std::vector<std::string> event_log;
  std::uint64_t event_hash = 0;
};

}  // namespace ripple::wf
