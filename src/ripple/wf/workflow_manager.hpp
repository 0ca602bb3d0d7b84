#pragma once

/// \file workflow_manager.hpp
/// Executes workflow Graphs — and Pipelines, as linear graphs — over a
/// Session (the workflow-orchestration layer of the paper's Fig. 1
/// stack).
///
/// A GraphRun is a frontier scheduler: it tracks how many dependency
/// edges of each node are still unsatisfied and releases every node
/// that reaches zero, so independent branches run concurrently across
/// the run's pilots while fan-in joins wait for all of theirs.
/// Released nodes behave exactly like the old pipeline stages: data
/// staging overlaps service bootstrap, tasks launch when both have
/// cleared, consumed replicas stay pinned for the node's duration and
/// are released through lineage reference counts held by *every*
/// consuming node. Threshold edges (`EdgeOptions::after_tasks`) release
/// a successor before the predecessor completes — the DAG form of
/// asynchronous stage coupling — and conditional edges let a node's
/// BranchSelector prune unselected subtrees at completion (their
/// lineage references are dropped immediately, so pruned inputs become
/// evictable). A running node may also spawn() children into the live
/// graph through the run's Handle; spawns are idempotent per node key,
/// so a spawning task the FailureInjector kills and restarts cannot
/// double-spawn.
///
/// Prefetch generalizes the pipeline's stage-k+1 lookahead to the
/// frontier of ready successors: when a node's tasks launch, the
/// consumed datasets of its not-yet-released successors (up to two
/// dependency edges ahead, nearest first, so data needed
/// sooner claims the idle-link budget first) are pushed toward their
/// predicted pilots on idle links only.
///
/// Determinism: ready nodes are released in (release time, node
/// sequence) order, and every run keeps a release/complete/spawn/prune
/// event log with an FNV-1a fingerprint that is bit-identical across
/// same-seed reruns.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ripple/core/session.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/ml/autoscaler.hpp"
#include "ripple/wf/graph.hpp"
#include "ripple/wf/pipeline.hpp"

namespace ripple::wf {

class WorkflowManager {
 public:
  class Handle;

  explicit WorkflowManager(core::Session& session);

  /// Starts `graph` on `pilot` (or `pilots`, placing each node by the
  /// graph's Placement). Several graphs and pipelines may run
  /// concurrently. `on_done` fires once with the result. The returned
  /// Handle lets running nodes spawn children into the live graph.
  std::shared_ptr<Handle> run_graph(
      Graph graph, core::Pilot& pilot,
      std::function<void(const GraphResult&)> on_done);
  std::shared_ptr<Handle> run_graph(
      Graph graph, std::vector<core::Pilot*> pilots,
      std::function<void(const GraphResult&)> on_done);

  /// Starts `pipeline` on `pilot`: the thin linear-graph adapter.
  /// Stage i depends on stage i-1 with the stage's
  /// `unblock_next_after` threshold; results and metrics keep their
  /// pipeline names.
  void run_pipeline(Pipeline pipeline, core::Pilot& pilot,
                    std::function<void(const PipelineResult&)> on_done);
  void run_pipeline(Pipeline pipeline, std::vector<core::Pilot*> pilots,
                    std::function<void(const PipelineResult&)> on_done);

  /// Results of completed pipelines, keyed by pipeline name.
  [[nodiscard]] const std::map<std::string, PipelineResult>& results()
      const noexcept {
    return results_;
  }

  /// Results of completed graphs, keyed by graph name.
  [[nodiscard]] const std::map<std::string, GraphResult>& graph_results()
      const noexcept {
    return graph_results_;
  }

 private:
  struct EdgeRun {
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t after_tasks = kAfterAllTasks;
    bool conditional = false;
    bool satisfied = false;
  };

  struct NodeRun {
    GraphNode node;
    std::size_t seq = 0;
    /// Sequence of the node that spawn()ed this one; SIZE_MAX for
    /// nodes the graph was submitted with.
    std::size_t spawned_by = SIZE_MAX;
    std::vector<std::size_t> in_edges;   ///< indices into GraphRun::edges
    std::vector<std::size_t> out_edges;
    std::size_t preds_unsatisfied = 0;
    bool released = false;
    bool pruned = false;

    /// Frontier prefetches this node fired: (dataset, predicted zone)
    /// pairs, recorded so prune can revoke speculation whose consumer
    /// subtree was unselected (see prune_node).
    std::vector<std::pair<std::string, std::string>> prefetched;

    core::Pilot* pilot = nullptr;  ///< chosen at release
    /// The node's pending `consumes` staging call (0 when none);
    /// cancelled if the node completes while transfers are in flight.
    core::DataManager::StageTicket stage_ticket = 0;
    std::vector<std::string> service_uids;
    std::vector<std::unique_ptr<ml::Autoscaler>> autoscalers;
    std::vector<std::string> task_uids;
    double started_at = -1.0;
    double finished_at = -1.0;
    std::size_t tasks_done = 0;
    std::size_t tasks_failed = 0;
    bool services_ready = false;  ///< bootstrap barrier passed
    bool data_ready = false;      ///< `consumes` staged into the zone
    bool data_pinned = false;     ///< consumed replicas pinned in zone
    bool lineage_released = false;
    bool tasks_launched = false;
    bool completed = false;
    /// Node span ("wf" category, child of the graph span); 0 while
    /// closed or tracing is disabled.
    metrics::SpanId trace = 0;
  };

  struct GraphRun {
    std::string name;
    std::vector<core::Pilot*> pilots;
    /// deque: spawn() appends while callbacks hold references.
    std::deque<NodeRun> nodes;
    std::vector<EdgeRun> edges;
    std::map<std::string, std::size_t> index;
    Placement placement = Placement::locality;
    /// Tenant every pin, lineage reference, stage reservation, task and
    /// service of this run is accounted to (Graph::tenant).
    std::string tenant;
    /// Exactly one of these is set (pipeline adapter vs graph API).
    std::function<void(const GraphResult&)> on_done;
    std::function<void(const PipelineResult&)> pipeline_done;
    bool pipeline_mode = false;
    double started_at = 0.0;
    std::size_t finished_nodes = 0;
    std::size_t pruned_nodes = 0;
    std::size_t spawned_nodes = 0;
    std::size_t retries_left = 0;  ///< Graph::task_retry_budget
    std::size_t tasks_retried = 0;
    bool failed = false;
    bool reported = false;
    /// Graph root span; 0 while closed or tracing is disabled.
    metrics::SpanId trace = 0;
    std::vector<std::string> event_log;
    std::uint64_t event_hash = 0;
  };

  std::shared_ptr<Handle> launch_graph(
      Graph graph, std::vector<core::Pilot*> pilots, bool pipeline_mode,
      std::function<void(const GraphResult&)> on_done,
      std::function<void(const PipelineResult&)> pipeline_done);
  /// Appends to the run's deterministic event stream and rolls its
  /// FNV-1a fingerprint (recorded whether or not tracing is on).
  void record_event(GraphRun& run, const std::string& line);
  [[nodiscard]] static const std::string& display_name(const NodeRun& node);

  /// Releases `seq` into the running frontier: places it, starts data
  /// staging overlapped with service bootstrap.
  void release_node(const std::shared_ptr<GraphRun>& run, std::size_t seq);
  /// Releases every ready node in ascending sequence order (the
  /// deterministic tie-break for same-time releases).
  void release_ready(const std::shared_ptr<GraphRun>& run,
                     std::vector<std::size_t> ready);
  /// Marks `edge` delivered; when its target reaches zero unsatisfied
  /// predecessors, the target joins `ready`.
  void satisfy_edge(const std::shared_ptr<GraphRun>& run,
                    std::size_t edge_index,
                    std::vector<std::size_t>& ready);
  /// The pilot a node would be placed on right now (contention-aware
  /// advisor under Placement::locality, first pilot otherwise).
  [[nodiscard]] core::Pilot* predict_pilot(const GraphRun& run,
                                           const Stage& stage) const;
  /// Frontier lookahead: prefetch the consumed datasets of `seq`'s
  /// not-yet-released successors (nearest first) toward their
  /// predicted pilots while `seq` computes.
  void prefetch_frontier(const std::shared_ptr<GraphRun>& run,
                         std::size_t seq);
  /// Launches tasks once both the service barrier and the node's
  /// dataset staging have cleared.
  void maybe_launch_tasks(const std::shared_ptr<GraphRun>& run,
                          std::size_t seq);
  void launch_node_tasks(const std::shared_ptr<GraphRun>& run,
                         std::size_t seq);
  /// Submits node task `task_index` (from its original description)
  /// and watches its completion; used for the first launch and for
  /// budgeted retries alike.
  void submit_node_task(const std::shared_ptr<GraphRun>& run,
                        std::size_t seq, std::size_t task_index);
  void on_task_terminal(const std::shared_ptr<GraphRun>& run,
                        std::size_t seq, std::size_t task_index, bool ok);
  /// Unpins the node's consumed replicas and drops one lineage
  /// reference per consumed dataset (idempotent), both under the run's
  /// tenant — releases must pair with the tenant that pinned.
  void release_node_data(NodeRun& node, const std::string& tenant);
  /// Removes an unselected (or unsatisfiable) node from the run before
  /// it starts, releasing its lineage references, and cascades to every
  /// descendant that depended on it.
  void prune_node(const std::shared_ptr<GraphRun>& run, std::size_t seq);
  void complete_node(const std::shared_ptr<GraphRun>& run, std::size_t seq);
  void maybe_finish(const std::shared_ptr<GraphRun>& run);
  void finish_graph(const std::shared_ptr<GraphRun>& run);
  /// Handle::spawn backend; see Handle for semantics.
  std::size_t spawn_node(const std::shared_ptr<GraphRun>& run,
                         const std::string& parent, GraphNode child,
                         const std::vector<std::string>& deps);

  core::Session& session_;
  common::Logger log_;
  std::map<std::string, PipelineResult> results_;
  std::map<std::string, GraphResult> graph_results_;
};

/// Live interface into a running graph, returned by run_graph. Nodes
/// (task payloads, completion hooks) use it to grow the graph while it
/// executes.
class WorkflowManager::Handle {
 public:
  /// Inserts `child` into the live graph as a child of `parent`, with
  /// full-completion dependency edges on `deps` (each must name an
  /// existing node; already-completed dependencies count as
  /// satisfied, and a node with none outstanding releases
  /// immediately). Returns the child's sequence number.
  ///
  /// Idempotent per child key: spawning an existing key from the same
  /// parent returns the existing node's sequence without re-adding it
  /// — a restarted spawning task re-runs its payload without
  /// double-spawning. A key collision from a *different* parent (or
  /// with a statically-added node) throws.
  std::size_t spawn(const std::string& parent, GraphNode child,
                    const std::vector<std::string>& deps = {});

  /// True once the run's result has been reported.
  [[nodiscard]] bool finished() const noexcept;

 private:
  friend class WorkflowManager;
  Handle(WorkflowManager* manager, std::shared_ptr<GraphRun> run)
      : manager_(manager), run_(std::move(run)) {}

  WorkflowManager* manager_;
  std::shared_ptr<GraphRun> run_;
};

}  // namespace ripple::wf
