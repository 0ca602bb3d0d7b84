#pragma once

/// \file pipeline.hpp
/// Pipeline/Stage workflow structures (EnTK role).
///
/// A Pipeline is an ordered list of Stages; each Stage bundles the
/// services it needs (started first, per the paper's readiness
/// relations) and the tasks that do the work. Asynchronous stage
/// coupling — "data preparation and model training operate
/// asynchronously" (use case II-A) — is expressed with
/// `unblock_next_after`: the next stage may start once that many of
/// this stage's tasks are DONE, instead of waiting for all of them.
///
/// Pipelines execute as linear graphs: the WorkflowManager converts a
/// Pipeline through `Graph::from_pipeline` (graph.hpp) and runs it on
/// the DAG frontier scheduler, with `unblock_next_after` becoming the
/// chain edge's `after_tasks` threshold. Workflows with fan-out,
/// joins, conditional branches, or runtime-spawned nodes use
/// wf::Graph directly.

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ripple/core/descriptions.hpp"

namespace ripple::wf {

/// Optional elastic serving for a stage: when enabled, each of the
/// stage's service descriptions becomes the replica template of an
/// ml::Autoscaler-managed group instead of a fixed instance. Stage
/// tasks that watch the group name (client config `watch`) then follow
/// replicas as the pool breathes with the stage's request backlog.
struct StageAutoscale {
  bool enabled = false;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 4;
  double scale_up_outstanding = 8.0;
  double scale_down_outstanding = 1.0;
  sim::Duration poll_interval = 0.25;
  sim::Duration cooldown = 1.0;

  /// Latency SLO for the stage's serving groups: when > 0, replicas
  /// scale on the windowed p95 request latency against this target
  /// (seconds) instead of queue depth — see ml::AutoscalerConfig.
  double target_p95 = 0.0;
  double headroom_fraction = 0.5;
  std::size_t down_sustain = 4;
};

struct Stage {
  std::string name = "stage";

  /// Datasets this stage's tasks read. They are staged into the chosen
  /// pilot's zone as soon as the stage starts (overlapping service
  /// bootstrap), pinned there while the stage runs, and feed the
  /// locality-aware pilot ranking of multi-pilot runs.
  std::vector<std::string> consumes;

  /// Output contract: datasets this stage must register (via task
  /// stage-out or payload put) before it completes — a missing one
  /// fails the pipeline. Produced replicas in the stage's zone are
  /// LRU-touched so store pressure does not immediately evict them;
  /// eviction *protection* is driven by later stages' `consumes`
  /// (lineage reference counts).
  std::vector<std::string> produces;

  /// Services started (and readiness-awaited) before this stage's tasks.
  std::vector<core::ServiceDescription> services;

  /// Elastic replica management for this stage's services.
  StageAutoscale autoscale;

  /// The stage's compute tasks.
  std::vector<core::TaskDescription> tasks;

  /// Number of DONE tasks after which the *next* stage may begin.
  /// Default: all tasks (strictly sequential stages).
  std::size_t unblock_next_after = std::numeric_limits<std::size_t>::max();

  /// Stop this stage's services once the stage completes (dynamic
  /// resource release, paper section II-A).
  bool stop_services_after = false;
};

/// How a multi-pilot run picks the pilot of each stage.
enum class Placement {
  first,     ///< data-blind: every stage runs on the first pilot
  locality,  ///< rank pilots by bytes-that-must-move (PlacementAdvisor)
};

struct Pipeline {
  std::string name = "pipeline";
  std::vector<Stage> stages;
  Placement placement = Placement::locality;

  /// Tenant the run is accounted to: fair-share scheduling weight,
  /// store/link quotas, per-tenant pins and lineage. Tasks and services
  /// without their own tenant inherit it. Empty (default): untenanted,
  /// all multi-tenant machinery stays out of the way.
  std::string tenant;

  /// Pipeline-wide budget of task resubmissions: a stage task that ends
  /// FAILED (payload error, restart budget exhausted, pilot lost) is
  /// submitted again from its original description while budget
  /// remains, instead of failing the pipeline. Complements the
  /// TaskManager's in-place restarts, which re-place the *same* task
  /// after transient node/pilot failures; this is the workflow-level
  /// backstop above them. Default 0: any task failure is pipeline-fatal.
  std::size_t task_retry_budget = 0;
};

/// Outcome of a pipeline run, reported to the completion callback and
/// queryable from the WorkflowManager afterwards.
struct PipelineResult {
  std::string pipeline;
  bool ok = false;
  double makespan = 0.0;  ///< first submission to last completion
  std::vector<double> stage_durations;
  std::vector<std::string> stage_names;
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
  /// Resubmissions drawn from Pipeline::task_retry_budget.
  std::size_t tasks_retried = 0;
};

}  // namespace ripple::wf
