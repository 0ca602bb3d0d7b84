#include "ripple/wf/workflow_manager.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/data/placement_advisor.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::wf {

namespace {
std::string event_time(double time) { return strutil::format_fixed(time, 3); }

/// How many dependency edges ahead of a launching node the frontier
/// prefetch looks.
constexpr std::size_t kPrefetchDepth = 2;
}  // namespace

WorkflowManager::WorkflowManager(core::Session& session)
    : session_(session),
      log_(session.runtime().make_logger("workflow_manager")) {}

// --- entry points ----------------------------------------------------------

std::shared_ptr<WorkflowManager::Handle> WorkflowManager::run_graph(
    Graph graph, core::Pilot& pilot,
    std::function<void(const GraphResult&)> on_done) {
  return run_graph(std::move(graph), std::vector<core::Pilot*>{&pilot},
                   std::move(on_done));
}

std::shared_ptr<WorkflowManager::Handle> WorkflowManager::run_graph(
    Graph graph, std::vector<core::Pilot*> pilots,
    std::function<void(const GraphResult&)> on_done) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "run_graph: empty callback");
  // Reject cycles and consumed-but-never-produced datasets up front;
  // datasets the session already knows count as external inputs.
  graph.validate(
      [this](const std::string& name) { return session_.data().has(name); });
  return launch_graph(std::move(graph), std::move(pilots), false,
                      std::move(on_done), {});
}

void WorkflowManager::run_pipeline(
    Pipeline pipeline, core::Pilot& pilot,
    std::function<void(const PipelineResult&)> on_done) {
  run_pipeline(std::move(pipeline), std::vector<core::Pilot*>{&pilot},
               std::move(on_done));
}

void WorkflowManager::run_pipeline(
    Pipeline pipeline, std::vector<core::Pilot*> pilots,
    std::function<void(const PipelineResult&)> on_done) {
  ensure(!pipeline.stages.empty(), Errc::invalid_argument, "pipeline '",
         pipeline.name, "' has no stages");
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "run_pipeline: empty callback");
  // The adapter skips Graph::validate's producer check: pipelines have
  // always been free to consume datasets registered after submission
  // or produced by task stage-out without a declared contract (a chain
  // cannot have cycles either way).
  launch_graph(Graph::from_pipeline(pipeline), std::move(pilots), true, {},
               std::move(on_done));
}

std::shared_ptr<WorkflowManager::Handle> WorkflowManager::launch_graph(
    Graph graph, std::vector<core::Pilot*> pilots, bool pipeline_mode,
    std::function<void(const GraphResult&)> on_done,
    std::function<void(const PipelineResult&)> pipeline_done) {
  ensure(!graph.nodes().empty(), Errc::invalid_argument, "graph '", graph.name,
         "' has no nodes");
  ensure(!pilots.empty(), Errc::invalid_argument, "graph '", graph.name,
         "' has no pilots");

  auto run = std::make_shared<GraphRun>();
  run->name = graph.name;
  run->pilots = std::move(pilots);
  run->placement = graph.placement;
  run->tenant = graph.tenant;
  run->on_done = std::move(on_done);
  run->pipeline_done = std::move(pipeline_done);
  run->pipeline_mode = pipeline_mode;
  run->started_at = session_.now();
  run->retries_left = graph.task_retry_budget;
  run->event_hash = common::kFnvOffsetBasis;
  for (const GraphNode& graph_node : graph.nodes()) {
    NodeRun node;
    node.node = graph_node;
    node.seq = run->nodes.size();
    // Lineage: every node that reads a dataset holds one reference;
    // the catalog keeps the dataset evict-proof until all consuming
    // nodes have finished (or been pruned).
    for (const auto& name : node.node.stage.consumes) {
      session_.data().catalog().add_consumers(name, 1, run->tenant);
    }
    run->index.emplace(node.node.stage.name, node.seq);
    run->nodes.push_back(std::move(node));
  }
  for (const GraphEdge& graph_edge : graph.edges()) {
    EdgeRun edge;
    edge.from = graph_edge.from;
    edge.to = graph_edge.to;
    edge.after_tasks = graph_edge.after_tasks;
    edge.conditional = graph_edge.conditional;
    const std::size_t edge_index = run->edges.size();
    run->edges.push_back(edge);
    run->nodes[edge.from].out_edges.push_back(edge_index);
    run->nodes[edge.to].in_edges.push_back(edge_index);
    ++run->nodes[edge.to].preds_unsatisfied;
  }

  log_.info(pipeline_mode ? "pipeline '" : "graph '", run->name, "' started (",
            run->nodes.size(), " nodes, ", run->edges.size(), " edges, ",
            run->pilots.size(), " pilots)");
  session_.counters().add(pipeline_mode ? "wf.pipelines" : "wf.graphs");
  if (session_.tracer().enabled()) {
    run->trace = session_.tracer().begin(
        run->name, "wf", run->name, run->started_at, 0,
        {{pipeline_mode ? "stages" : "nodes",
          std::to_string(run->nodes.size())},
         {"pilots", std::to_string(run->pilots.size())}});
    if (!run->tenant.empty()) {
      session_.tracer().arg(run->trace, "tenant", run->tenant);
    }
  }

  // The initial frontier: every node with no dependency edges.
  std::vector<std::size_t> roots;
  for (const auto& node : run->nodes) {
    if (node.preds_unsatisfied == 0) roots.push_back(node.seq);
  }
  release_ready(run, std::move(roots));
  return std::shared_ptr<Handle>(new Handle(this, std::move(run)));
}

// --- bookkeeping -----------------------------------------------------------

void WorkflowManager::record_event(GraphRun& run, const std::string& line) {
  run.event_log.push_back(line);
  run.event_hash = common::fnv1a(run.event_hash, line);
}

const std::string& WorkflowManager::display_name(const NodeRun& node) {
  return node.node.display.empty() ? node.node.stage.name : node.node.display;
}

core::Pilot* WorkflowManager::predict_pilot(const GraphRun& run,
                                            const Stage& stage) const {
  if (run.placement != Placement::locality) return run.pilots.front();
  const data::PlacementAdvisor advisor(session_.data().catalog(),
                                       &session_.data().engine(),
                                       &session_.scheduler());
  return advisor.best(run.pilots, stage.consumes);
}

// --- frontier release ------------------------------------------------------

void WorkflowManager::release_ready(const std::shared_ptr<GraphRun>& run,
                                    std::vector<std::size_t> ready) {
  if (run->failed || run->reported) return;
  // Deterministic ready order: same release time, ascending node
  // sequence — bit-identical across reruns.
  std::sort(ready.begin(), ready.end());
  for (const std::size_t seq : ready) release_node(run, seq);
}

void WorkflowManager::satisfy_edge(const std::shared_ptr<GraphRun>& run,
                                   std::size_t edge_index,
                                   std::vector<std::size_t>& ready) {
  EdgeRun& edge = run->edges[edge_index];
  if (edge.satisfied) return;
  edge.satisfied = true;
  NodeRun& to = run->nodes[edge.to];
  if (to.pruned || to.released) return;
  if (--to.preds_unsatisfied == 0) ready.push_back(edge.to);
}

void WorkflowManager::release_node(const std::shared_ptr<GraphRun>& run,
                                   std::size_t seq) {
  NodeRun& node = run->nodes[seq];
  if (node.released || node.pruned || run->failed || run->reported) return;
  node.released = true;
  node.started_at = session_.now();
  node.pilot = predict_pilot(*run, node.node.stage);
  const std::string zone = node.pilot->cluster().name();
  if (!run->tenant.empty()) {
    // Tasks and services without their own tenant inherit the run's —
    // stamped once at release so every later copy (retries included)
    // carries it.
    for (auto& task : node.node.stage.tasks) {
      if (task.tenant.empty()) task.tenant = run->tenant;
    }
    for (auto& service : node.node.stage.services) {
      if (service.tenant.empty()) service.tenant = run->tenant;
    }
  }
  record_event(*run, strutil::cat(event_time(node.started_at), " release ",
                                  node.node.stage.name));
  log_.info("graph '", run->name, "': node '", node.node.stage.name,
            "' released on ", zone);
  session_.counters().add(run->pipeline_mode ? "wf.stages" : "wf.nodes");
  if (session_.tracer().enabled()) {
    node.trace = session_.tracer().begin(display_name(node), "wf", run->name,
                                         node.started_at, run->trace,
                                         {{"zone", zone}});
    if (node.in_edges.size() >= 2) {
      // Fan-in join: every predecessor edge has delivered.
      session_.tracer().instant(
          "join", "wf", run->name, node.started_at, run->trace,
          {{"node", node.node.stage.name},
           {"preds", std::to_string(node.in_edges.size())}});
    }
  }

  // Node-level data staging overlaps service bootstrap; tasks launch
  // once both have cleared.
  if (node.node.stage.consumes.empty()) {
    node.data_ready = true;
  } else {
    std::vector<core::DataManager::StageTarget> targets;
    targets.reserve(node.node.stage.consumes.size());
    for (const auto& name : node.node.stage.consumes) {
      targets.push_back({name, zone});
    }
    node.stage_ticket = session_.data().stage(
        std::move(targets),
        [this, run, seq, zone](bool ok, const std::string& failed_dataset) {
          NodeRun& staged = run->nodes[seq];
          staged.stage_ticket = 0;
          // The node may have completed already (service bootstrap
          // failure); a late-landing pin would leak.
          if (staged.completed) return;
          if (!ok) {
            run->failed = true;
            log_.error("graph '", run->name, "': staging '", failed_dataset,
                       "' into ", zone, " failed");
            complete_node(run, seq);
            return;
          }
          for (const auto& name : staged.node.stage.consumes) {
            session_.data().catalog().pin(name, zone, run->tenant);
          }
          staged.data_pinned = true;
          staged.data_ready = true;
          maybe_launch_tasks(run, seq);
        },
        run->tenant);
  }

  if (node.node.stage.services.empty()) {
    node.services_ready = true;
    maybe_launch_tasks(run, seq);
    return;
  }
  const auto on_services_ready = [this, run, seq](bool ok) {
    if (!ok) {
      run->failed = true;
      log_.error("graph '", run->name, "': node services failed");
      complete_node(run, seq);
      return;
    }
    run->nodes[seq].services_ready = true;
    maybe_launch_tasks(run, seq);
  };
  if (node.node.stage.autoscale.enabled) {
    // Elastic node: every service description seeds a replica group.
    const StageAutoscale& as = node.node.stage.autoscale;
    ml::AutoscalerConfig config;
    config.min_replicas = as.min_replicas;
    config.max_replicas = as.max_replicas;
    config.scale_up_outstanding = as.scale_up_outstanding;
    config.scale_down_outstanding = as.scale_down_outstanding;
    config.poll_interval = as.poll_interval;
    config.cooldown = as.cooldown;
    config.target_p95 = as.target_p95;
    config.headroom_fraction = as.headroom_fraction;
    config.down_sustain = as.down_sustain;
    auto pending =
        std::make_shared<std::size_t>(node.node.stage.services.size());
    auto all_ok = std::make_shared<bool>(true);
    for (const auto& desc : node.node.stage.services) {
      node.autoscalers.push_back(std::make_unique<ml::Autoscaler>(
          session_, *node.pilot, desc, config));
      node.autoscalers.back()->start(
          [pending, all_ok, on_services_ready](bool ok) {
            *all_ok = *all_ok && ok;
            if (--(*pending) == 0) on_services_ready(*all_ok);
          });
    }
    // The initial replicas double as the tasks' readiness barrier.
    for (const auto& scaler : node.autoscalers) {
      const auto& uids = scaler->replicas();
      node.service_uids.insert(node.service_uids.end(), uids.begin(),
                               uids.end());
    }
    return;
  }
  // One submit_all batch: priorities are enacted across the whole node
  // and the pilot's wait queue is scanned once, not N times.
  node.service_uids =
      session_.services().submit_all(*node.pilot, node.node.stage.services);
  session_.services().when_ready(node.service_uids, on_services_ready);
}

// --- frontier prefetch -----------------------------------------------------

void WorkflowManager::prefetch_frontier(const std::shared_ptr<GraphRun>& run,
                                        std::size_t seq) {
  if (run->failed) return;
  // BFS over successor edges: candidates are ordered by (steps until
  // consumption, node sequence), so data a nearer successor needs
  // claims the idle-link prefetch budget first; link slack is the
  // DataManager's idle-links-only, budget-bounded rule.
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  std::set<std::size_t> seen{seq};
  std::deque<std::pair<std::size_t, std::size_t>> queue{{seq, 0}};
  while (!queue.empty()) {
    const auto [at, depth] = queue.front();
    queue.pop_front();
    if (depth == kPrefetchDepth) continue;
    for (const std::size_t edge_index : run->nodes[at].out_edges) {
      const std::size_t next = run->edges[edge_index].to;
      if (!seen.insert(next).second) continue;
      const NodeRun& successor = run->nodes[next];
      if (successor.pruned) continue;
      if (!successor.released) candidates.emplace_back(depth + 1, next);
      queue.emplace_back(next, depth + 1);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  const data::ReplicaCatalog& catalog = session_.data().catalog();
  for (const auto& [depth, next] : candidates) {
    NodeRun& successor = run->nodes[next];
    // Only existing data can move ahead of demand: a successor whose
    // inputs are all still to be produced gets no prediction, no
    // prefetch and no ledger entries.
    const auto& consumes = successor.node.stage.consumes;
    if (std::none_of(consumes.begin(), consumes.end(),
                     [&](const auto& name) { return catalog.has(name); })) {
      continue;
    }
    // Replication-ahead: while this node computes, idle links push a
    // coming successor's inputs toward where it will probably run. A
    // wrong prediction costs only budgeted idle-link bytes — the
    // successor's own staging re-resolves placement when it starts.
    core::Pilot* predicted = predict_pilot(*run, successor.node.stage);
    if (predicted == nullptr) continue;
    const std::string predicted_zone = predicted->cluster().name();
    const std::size_t started = session_.data().prefetch(
        successor.node.stage.consumes, predicted_zone, run->tenant);
    // Remember what was speculated for whom: if the successor is later
    // pruned, its in-flight prefetches are abandoned instead of landing
    // bytes nobody will read (see prune_node).
    for (const auto& name : successor.node.stage.consumes) {
      successor.prefetched.emplace_back(name, predicted_zone);
    }
    if (started > 0) {
      log_.info("graph '", run->name, "': prefetching ", started,
                " dataset(s) for node '", successor.node.stage.name,
                "' toward ", predicted->cluster().name(), " (", depth,
                " step(s) ahead)");
    }
  }
}

// --- task launch and completion --------------------------------------------

void WorkflowManager::maybe_launch_tasks(const std::shared_ptr<GraphRun>& run,
                                         std::size_t seq) {
  NodeRun& node = run->nodes[seq];
  if (node.tasks_launched || node.completed) return;
  if (!node.services_ready || !node.data_ready) return;
  node.tasks_launched = true;
  launch_node_tasks(run, seq);
  prefetch_frontier(run, seq);
}

void WorkflowManager::launch_node_tasks(const std::shared_ptr<GraphRun>& run,
                                        std::size_t seq) {
  NodeRun& node = run->nodes[seq];
  if (node.node.stage.tasks.empty()) {
    complete_node(run, seq);
    return;
  }
  node.task_uids.resize(node.node.stage.tasks.size());
  for (std::size_t i = 0; i < node.node.stage.tasks.size(); ++i) {
    submit_node_task(run, seq, i);
  }
}

void WorkflowManager::submit_node_task(const std::shared_ptr<GraphRun>& run,
                                       std::size_t seq,
                                       std::size_t task_index) {
  NodeRun& node = run->nodes[seq];
  core::TaskDescription desc = node.node.stage.tasks[task_index];
  // Node tasks implicitly require the node's services.
  for (const auto& svc : node.service_uids) {
    desc.requires_services.push_back(svc);
  }
  const std::string uid = session_.tasks().submit(*node.pilot, desc);
  node.task_uids[task_index] = uid;
  session_.tasks().when_done({uid}, [this, run, seq, task_index](bool ok) {
    on_task_terminal(run, seq, task_index, ok);
  });
}

void WorkflowManager::on_task_terminal(const std::shared_ptr<GraphRun>& run,
                                       std::size_t seq,
                                       std::size_t task_index, bool ok) {
  NodeRun& node = run->nodes[seq];
  if (!ok && run->retries_left > 0 && !node.completed) {
    // Workflow-level backstop above the TaskManager's in-place
    // restarts: the attempt is terminally FAILED, but the graph's
    // retry budget buys a fresh submission from the same description.
    --run->retries_left;
    ++run->tasks_retried;
    session_.counters().add("wf.retries");
    log_.info("graph '", run->name, "': retrying task ", task_index,
              " of node '", node.node.stage.name, "' (", run->retries_left,
              " retries left)");
    submit_node_task(run, seq, task_index);
    return;
  }
  if (ok) {
    ++node.tasks_done;
  } else {
    ++node.tasks_failed;
    // Tolerant nodes (ensemble members, hyperopt trials) record the
    // failure in their outcome but leave the graph healthy.
    if (!node.node.tolerate_failures) run->failed = true;
  }
  const std::size_t terminal = node.tasks_done + node.tasks_failed;
  if (terminal == node.task_uids.size()) {
    // Full completion delivers the remaining out-edges through
    // complete_node, after the output contract has been checked.
    complete_node(run, seq);
    return;
  }
  if (run->failed || !ok) return;
  // Threshold (asynchronously coupled) edges deliver early, before the
  // node completes.
  std::vector<std::size_t> ready;
  for (const std::size_t edge_index : node.out_edges) {
    EdgeRun& edge = run->edges[edge_index];
    if (edge.satisfied || edge.conditional) continue;
    if (node.tasks_done < edge.after_tasks) continue;
    record_event(*run, strutil::cat(event_time(session_.now()), " unblock ",
                                    node.node.stage.name, " -> ",
                                    run->nodes[edge.to].node.stage.name));
    log_.info("graph '", run->name, "': node '", node.node.stage.name,
              "' reached its threshold, releasing '",
              run->nodes[edge.to].node.stage.name, "' asynchronously");
    satisfy_edge(run, edge_index, ready);
  }
  release_ready(run, std::move(ready));
}

void WorkflowManager::release_node_data(NodeRun& node,
                                        const std::string& tenant) {
  if (node.lineage_released) return;
  node.lineage_released = true;
  auto& catalog = session_.data().catalog();
  for (const auto& name : node.node.stage.consumes) {
    if (node.data_pinned) {
      catalog.unpin(name, node.pilot->cluster().name(), tenant);
    }
    // This node's read is over; when every consuming node has finished
    // (or been pruned), the intermediate becomes evictable.
    catalog.consume_done(name, tenant);
  }
}

void WorkflowManager::prune_node(const std::shared_ptr<GraphRun>& run,
                                 std::size_t seq) {
  NodeRun& node = run->nodes[seq];
  if (node.pruned || node.released) return;
  node.pruned = true;
  ++run->pruned_nodes;
  record_event(*run, strutil::cat(event_time(session_.now()), " prune ",
                                  node.node.stage.name));
  log_.info("graph '", run->name, "': node '", node.node.stage.name,
            "' pruned");
  session_.counters().add("wf.pruned");
  if (session_.tracer().enabled()) {
    session_.tracer().instant("prune", "wf", run->name, session_.now(),
                              run->trace,
                              {{"node", node.node.stage.name}});
  }
  // The branch will never run: drop its lineage references now, or its
  // inputs would stay evict-proof forever (the pruned-branch leak).
  release_node_data(node, run->tenant);
  // Speculation for this node is now pointless: abandon its in-flight
  // frontier prefetches — unless another (unpruned) consumer still
  // holds a lineage reference, in which case the bytes are wanted and
  // the flight keeps going. abandon_prefetch is a safe no-op for
  // flights that completed, were never started, or gained demand
  // waiters in the meantime.
  auto& catalog = session_.data().catalog();
  for (const auto& [name, zone] : node.prefetched) {
    if (catalog.consumers_left(name) > 0) continue;
    if (session_.data().abandon_prefetch(name, zone)) {
      record_event(*run, strutil::cat(event_time(session_.now()),
                                      " abandon_prefetch ", name, " ", zone));
      log_.info("graph '", run->name, "': abandoned prefetch of '", name,
                "' into ", zone, " (consumer pruned)");
      session_.counters().add("wf.prefetch_abandoned");
    }
  }
  node.prefetched.clear();
  // Descendants that still needed this node can never be satisfied.
  for (const std::size_t edge_index : node.out_edges) {
    if (!run->edges[edge_index].satisfied) {
      prune_node(run, run->edges[edge_index].to);
    }
  }
}

void WorkflowManager::complete_node(const std::shared_ptr<GraphRun>& run,
                                    std::size_t seq) {
  NodeRun& node = run->nodes[seq];
  if (node.completed) return;
  node.completed = true;
  node.finished_at = session_.now();
  ++run->finished_nodes;
  // Completing with transfers still in flight (service bootstrap
  // failed): abandon them so they stop consuming link bandwidth.
  session_.data().cancel_stage(std::exchange(node.stage_ticket, 0));
  release_node_data(node, run->tenant);
  // Declared outputs are a contract: completing without having
  // registered one is a failure the downstream nodes would otherwise
  // hit as a confusing missing-dataset error.
  bool contract_ok = true;
  if (!run->failed) {
    const std::string zone = node.pilot->cluster().name();
    auto& catalog = session_.data().catalog();
    for (const auto& name : node.node.stage.produces) {
      const data::Dataset* ds = catalog.find(name);
      if (ds == nullptr) {
        run->failed = true;
        contract_ok = false;
        log_.error("graph '", run->name, "': node '", node.node.stage.name,
                   "' declared output '", name, "' but never produced it");
      } else if (ds->zones.count(zone) != 0) {
        // Freshly produced: mark recently used so store pressure does
        // not evict it before its consumers run.
        catalog.touch(ds->name, zone);
      }
    }
  }
  const bool node_ok = node.tasks_failed == 0 && contract_ok;
  record_event(*run,
               strutil::cat(event_time(node.finished_at), " complete ",
                            node.node.stage.name, " ok=", node_ok ? 1 : 0,
                            " done=", node.tasks_done,
                            " failed=", node.tasks_failed));
  if (node.trace != 0) {
    auto& tracer = session_.tracer();
    tracer.arg(node.trace, "tasks_done", std::to_string(node.tasks_done));
    tracer.arg(node.trace, "tasks_failed",
               std::to_string(node.tasks_failed));
    tracer.end(node.trace, node.finished_at);
    node.trace = 0;
  }
  log_.info("graph '", run->name, "': node '", node.node.stage.name,
            "' complete (", node.tasks_done, " done, ", node.tasks_failed,
            " failed)");

  if (node.node.stage.stop_services_after) {
    // Elastic nodes drain through their autoscalers (which also stop
    // any scaled-up replicas the node's uid list never saw).
    for (auto& scaler : node.autoscalers) scaler->stop();
    if (node.autoscalers.empty()) {
      for (const auto& uid : node.service_uids) {
        session_.services().stop(uid);
      }
    }
  }

  NodeOutcome outcome;
  outcome.node = node.node.stage.name;
  outcome.ok = node_ok;
  outcome.tasks_done = node.tasks_done;
  outcome.tasks_failed = node.tasks_failed;
  outcome.started_at = node.started_at;
  outcome.finished_at = node.finished_at;
  outcome.task_uids = node.task_uids;

  std::vector<std::size_t> ready;
  if (!run->failed) {
    std::vector<std::string> selected;
    const bool have_selector = static_cast<bool>(node.node.select);
    if (have_selector) selected = node.node.select(outcome);
    // Snapshot: pruning and completion hooks may grow the edge list.
    const std::vector<std::size_t> out_edges = node.out_edges;
    for (const std::size_t edge_index : out_edges) {
      EdgeRun& edge = run->edges[edge_index];
      if (edge.satisfied) continue;
      if (edge.conditional && have_selector) {
        const std::string& to_key = run->nodes[edge.to].node.stage.name;
        if (std::find(selected.begin(), selected.end(), to_key) ==
            selected.end()) {
          prune_node(run, edge.to);
          continue;
        }
      }
      satisfy_edge(run, edge_index, ready);
    }
    if (ready.size() >= 2 && session_.tracer().enabled()) {
      session_.tracer().instant(
          "fan-out", "wf", run->name, node.finished_at, run->trace,
          {{"node", node.node.stage.name},
           {"released", std::to_string(ready.size())}});
    }
  }
  // The completion hook runs before the successor wave so anything it
  // spawns joins the same deterministic release round.
  if (node.node.on_complete) node.node.on_complete(outcome);
  release_ready(run, std::move(ready));
  maybe_finish(run);
}

void WorkflowManager::maybe_finish(const std::shared_ptr<GraphRun>& run) {
  if (run->reported) return;
  // With concurrent branches a failure may surface while other nodes
  // are still running; report once, when every released node completed.
  for (const auto& node : run->nodes) {
    if (node.released && !node.completed) return;
  }
  if (!run->failed &&
      run->finished_nodes + run->pruned_nodes < run->nodes.size()) {
    // Unreleased nodes are still waiting on edges a running spawner
    // will deliver.
    return;
  }
  finish_graph(run);
}

void WorkflowManager::finish_graph(const std::shared_ptr<GraphRun>& run) {
  run->reported = true;

  // Nodes that never released (failure upstream) still hold the
  // lineage references taken at submission; drop them, or the catalog
  // would keep their datasets evict-proof forever.
  for (auto& node : run->nodes) {
    if (node.released || node.lineage_released) continue;
    node.lineage_released = true;
    for (const auto& name : node.node.stage.consumes) {
      session_.data().catalog().consume_done(name, run->tenant);
    }
  }

  GraphResult result;
  result.graph = run->name;
  result.ok = !run->failed;
  result.makespan = session_.now() - run->started_at;
  for (const auto& node : run->nodes) {
    if (node.started_at < 0) continue;
    result.node_names.push_back(display_name(node));
    result.node_durations.push_back(node.finished_at - node.started_at);
    result.tasks_done += node.tasks_done;
    result.tasks_failed += node.tasks_failed;
  }
  result.tasks_retried = run->tasks_retried;
  result.nodes_spawned = run->spawned_nodes;
  result.nodes_pruned = run->pruned_nodes;
  record_event(*run, strutil::cat(event_time(session_.now()),
                                  " finish ok=", result.ok ? 1 : 0));
  result.event_log = run->event_log;
  result.event_hash = run->event_hash;

  if (run->trace != 0) {
    session_.tracer().arg(run->trace, "ok", result.ok ? "true" : "false");
    session_.tracer().end(run->trace, session_.now());
    run->trace = 0;
  }
  log_.info(run->pipeline_mode ? "pipeline '" : "graph '", run->name, "' ",
            result.ok ? "completed" : "FAILED", " in ",
            strutil::format_duration(result.makespan));

  if (run->pipeline_mode) {
    PipelineResult pipeline_result;
    pipeline_result.pipeline = result.graph;
    pipeline_result.ok = result.ok;
    pipeline_result.makespan = result.makespan;
    pipeline_result.stage_durations = result.node_durations;
    pipeline_result.stage_names = result.node_names;
    pipeline_result.tasks_done = result.tasks_done;
    pipeline_result.tasks_failed = result.tasks_failed;
    pipeline_result.tasks_retried = result.tasks_retried;
    results_[run->name] = pipeline_result;
    session_.loop().post([on_done = run->pipeline_done, pipeline_result] {
      on_done(pipeline_result);
    });
  } else {
    graph_results_[run->name] = result;
    session_.loop().post(
        [on_done = run->on_done, result] { on_done(result); });
  }
}

// --- dynamic expansion -----------------------------------------------------

std::size_t WorkflowManager::spawn_node(const std::shared_ptr<GraphRun>& run,
                                        const std::string& parent,
                                        GraphNode child,
                                        const std::vector<std::string>& deps) {
  ensure(!run->reported, Errc::invalid_state, "graph '", run->name,
         "': spawn after finish");
  const auto parent_it = run->index.find(parent);
  ensure(parent_it != run->index.end(), Errc::not_found, "graph '", run->name,
         "': no node '", parent, "'");
  const std::size_t parent_seq = parent_it->second;
  const std::string key = child.stage.name;
  ensure(!key.empty(), Errc::invalid_argument, "graph '", run->name,
         "': spawned node needs a name");
  if (const auto it = run->index.find(key); it != run->index.end()) {
    // Idempotent spawn: a spawning task the failure injector killed
    // and restarted re-runs its payload; the same (parent, key) spawn
    // returns the live child instead of double-spawning it.
    ensure(run->nodes[it->second].spawned_by == parent_seq,
           Errc::invalid_argument, "graph '", run->name, "': node '", key,
           "' already exists");
    return it->second;
  }

  const std::size_t seq = run->nodes.size();
  NodeRun node;
  node.node = std::move(child);
  node.seq = seq;
  node.spawned_by = parent_seq;
  run->index.emplace(key, seq);
  run->nodes.push_back(std::move(node));
  ++run->spawned_nodes;
  for (const auto& name : run->nodes[seq].node.stage.consumes) {
    session_.data().catalog().add_consumers(name, 1, run->tenant);
  }
  record_event(*run, strutil::cat(event_time(session_.now()), " spawn ",
                                  parent, " -> ", key));
  log_.info("graph '", run->name, "': node '", parent, "' spawned '", key, "'");
  session_.counters().add("wf.spawned");
  if (session_.tracer().enabled()) {
    session_.tracer().instant("spawn", "wf", run->name, session_.now(),
                              run->trace,
                              {{"parent", parent}, {"child", key}});
  }

  bool unsatisfiable = false;
  for (const auto& dep : deps) {
    const auto dep_it = run->index.find(dep);
    ensure(dep_it != run->index.end(), Errc::not_found, "graph '", run->name,
           "': no node '", dep, "' to depend on");
    EdgeRun edge;
    edge.from = dep_it->second;
    edge.to = seq;
    const NodeRun& dep_node = run->nodes[dep_it->second];
    if (dep_node.completed) {
      edge.satisfied = true;  // already delivered
    } else if (dep_node.pruned) {
      unsatisfiable = true;
    }
    const std::size_t edge_index = run->edges.size();
    run->edges.push_back(edge);
    run->nodes[dep_it->second].out_edges.push_back(edge_index);
    run->nodes[seq].in_edges.push_back(edge_index);
    if (!edge.satisfied) ++run->nodes[seq].preds_unsatisfied;
  }
  if (unsatisfiable) {
    prune_node(run, seq);
  } else if (run->nodes[seq].preds_unsatisfied == 0) {
    release_ready(run, {seq});
  }
  return seq;
}

std::size_t WorkflowManager::Handle::spawn(
    const std::string& parent, GraphNode child,
    const std::vector<std::string>& deps) {
  return manager_->spawn_node(run_, parent, std::move(child), deps);
}

bool WorkflowManager::Handle::finished() const noexcept {
  return run_->reported;
}

}  // namespace ripple::wf
