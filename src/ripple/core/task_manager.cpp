#include "ripple/core/task_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/ids.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/data/placement_advisor.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::core {

namespace {

/// Datasets a description stages in — the task's input footprint.
std::vector<std::string> stage_in_datasets(const TaskDescription& desc) {
  std::vector<std::string> inputs;
  for (const auto& directive : desc.staging) {
    if (directive.action == StagingDirective::Action::stage_in) {
      inputs.push_back(directive.dataset);
    }
  }
  return inputs;
}

}  // namespace

TaskManager::TaskManager(Runtime& runtime, Scheduler& scheduler,
                         Executor& executor, DataManager& data,
                         ServiceManager& services)
    : runtime_(runtime),
      scheduler_(scheduler),
      executor_(executor),
      data_(data),
      services_(services),
      log_(runtime.make_logger("task_manager")),
      restart_rng_(runtime.rng().fork("task_restart")) {
  // A required service may become RUNNING (or fail) at any of its
  // transitions.
  services_.set_transition_listener([this] { post_recheck(); });
}

// ---------------------------------------------------------------------------
// State bookkeeping
// ---------------------------------------------------------------------------

void TaskManager::set_state(Active& active, TaskState state) {
  active.task.set_state(state, runtime_.loop().now());
  post_recheck();
  runtime_.publish_state(active.timeline, to_string(state));
  if (is_terminal(state)) settle_watchers(active);
}

void TaskManager::post_recheck() {
  if (waiting_.empty() && queued_evaluations_ == 0) return;
  runtime_.loop().post([this] { recheck_waiting(); });
}

void TaskManager::settle_watchers(Active& active) {
  const bool done = active.state() == TaskState::done;
  for (const auto& watcher : std::exchange(active.watchers, {})) {
    watcher->all_done = watcher->all_done && done;
    if (--watcher->remaining == 0) post_watcher(*watcher);
  }
}

void TaskManager::post_watcher(DoneWatcher& watcher) {
  runtime_.loop().post(
      [callback = std::move(watcher.on_done), all_done = watcher.all_done] {
        callback(all_done);
      });
}

void TaskManager::when_done(std::vector<std::string> uids,
                            std::function<void(bool)> on_done) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "when_done: empty callback");
  for (const auto& uid : uids) {
    ensure(exists(uid), Errc::not_found, "when_done: unknown task '", uid, "'");
  }
  auto watcher = std::make_shared<DoneWatcher>();
  watcher->on_done = std::move(on_done);
  for (const auto& uid : uids) {
    Active& active = tasks_.at(uid);
    const TaskState state = active.state();
    if (is_terminal(state)) {
      watcher->all_done = watcher->all_done && state == TaskState::done;
    } else if (active.watchers.empty() || active.watchers.back() != watcher) {
      // A uid listed twice is still one task to wait for.
      active.watchers.push_back(watcher);
      ++watcher->remaining;
    }
  }
  if (watcher->remaining == 0) post_watcher(*watcher);
}

// ---------------------------------------------------------------------------
// Submission & readiness
// ---------------------------------------------------------------------------

EntityId TaskManager::create_task(Pilot& pilot, TaskDescription desc) {
  desc.validate();
  ensure(executor_.payloads().has(desc.kind), Errc::not_found,
         "no payload factory for kind '", desc.kind, "'");
  for (const auto& dep : desc.depends_on) {
    ensure(exists(dep), Errc::not_found, "dependency '", dep,
           "' does not exist");
  }
  for (const auto& svc : desc.requires_services) {
    ensure(services_.exists(svc), Errc::not_found, "required service '", svc,
           "' does not exist");
  }

  const EntityId id =
      tasks_.emplace(runtime_.make_uid("task"), std::move(desc));
  Active& active = tasks_[id];
  active.task.set_pilot_uid(pilot.uid());
  active.pilot = &pilot;
  // The root span covers the task's whole lifetime; the phase spans
  // (queue-wait, stage-in/out, run, recovery) nest under it.
  if (runtime_.tracer().enabled()) {
    active.trace_task =
        runtime_.tracer().begin(active.task.description().name, "task",
                                active.uid(), runtime_.loop().now());
  }
  runtime_.counters().add("task.submitted");
  post_recheck();
  active.timeline = runtime_.add_entity("task", active.uid(),
                                        to_string(TaskState::created));
  return id;
}

std::string TaskManager::submit(Pilot& pilot, TaskDescription desc) {
  const EntityId id = create_task(pilot, std::move(desc));
  ++queued_evaluations_;
  runtime_.loop().post([this, id] {
    --queued_evaluations_;
    evaluate(id);
  });
  return tasks_[id].uid();
}

std::string TaskManager::submit_any(const std::vector<Pilot*>& candidates,
                                    TaskDescription desc) {
  ensure(!candidates.empty(), Errc::invalid_argument,
         "submit_any: no candidate pilots");
  // Contention-aware: estimated stage-in time at live link rates plus
  // the candidate's queue depth, not just resident bytes.
  const data::PlacementAdvisor advisor(data_.catalog(), &data_.engine(),
                                       &scheduler_);
  Pilot* pilot = advisor.best(candidates, stage_in_datasets(desc));
  return submit(*pilot, std::move(desc));
}

std::vector<std::string> TaskManager::submit_all(
    Pilot& pilot, std::vector<TaskDescription> descs) {
  std::vector<std::string> out;
  out.reserve(descs.size());
  std::vector<EntityId> ids;
  ids.reserve(descs.size());
  // One deferred pass: evaluate everything, then enter the scheduler as
  // a single batch so the waiting queue is scanned once, not N times.
  // Posted even when a later description throws — already-created tasks
  // must still be evaluated, as they were under per-task submission.
  const auto post_batch = [this, &pilot](std::vector<EntityId> ids) {
    if (ids.empty()) return;
    queued_evaluations_ += ids.size();
    runtime_.loop().post([this, &pilot, ids = std::move(ids)] {
      std::vector<EntityId> ready;
      for (const EntityId id : ids) {
        --queued_evaluations_;
        evaluate(id, &ready);
      }
      schedule_batch(pilot, ready);
    });
  };
  try {
    for (auto& desc : descs) {
      ids.push_back(create_task(pilot, std::move(desc)));
      out.push_back(tasks_[ids.back()].uid());
    }
  } catch (...) {
    post_batch(std::move(ids));
    throw;
  }
  post_batch(std::move(ids));
  return out;
}

TaskManager::Readiness TaskManager::readiness(const Active& active,
                                              std::string* blocker) const {
  const TaskDescription& desc = active.task.description();
  for (const auto& dep : desc.depends_on) {
    const TaskState state = get(dep).state();
    if (state == TaskState::failed || state == TaskState::canceled) {
      if (blocker) *blocker = dep;
      return Readiness::broken;
    }
    if (state != TaskState::done) return Readiness::pending;
  }
  for (const auto& svc : desc.requires_services) {
    const ServiceState state = services_.get(svc).state();
    if (is_terminal(state)) {
      if (blocker) *blocker = svc;
      return Readiness::broken;
    }
    if (state != ServiceState::running) return Readiness::pending;
  }
  return Readiness::ready;
}

void TaskManager::evaluate(EntityId id, std::vector<EntityId>* batch) {
  Active& active = tasks_[id];
  const TaskState state = active.state();
  if (state != TaskState::created && state != TaskState::waiting) return;

  std::string blocker;
  switch (readiness(active, &blocker)) {
    case Readiness::broken:
      waiting_.erase(active.uid());
      fail_task(id, strutil::cat("dependency ", blocker, " failed"));
      return;
    case Readiness::pending:
      // Waiting before the transition, so that its re-check is posted.
      waiting_.emplace(active.uid(), id);
      if (state == TaskState::created) {
        set_state(active, TaskState::waiting);
      }
      return;
    case Readiness::ready: {
      waiting_.erase(active.uid());
      const auto& staging = active.task.description().staging;
      const bool stages_in = std::any_of(
          staging.begin(), staging.end(), [](const StagingDirective& d) {
            return d.action == StagingDirective::Action::stage_in;
          });
      if (batch != nullptr && !stages_in) {
        batch->push_back(id);  // scheduled by schedule_batch
      } else {
        to_staging_in(id);
      }
      return;
    }
  }
}

void TaskManager::recheck_waiting() {
  // Copy: evaluate() mutates waiting_.
  std::vector<EntityId> snapshot;
  snapshot.reserve(waiting_.size());
  for (const auto& [uid, id] : waiting_) snapshot.push_back(id);
  for (const EntityId id : snapshot) evaluate(id);
}

// ---------------------------------------------------------------------------
// Staging in
// ---------------------------------------------------------------------------

void TaskManager::to_staging_in(EntityId id) {
  Active& active = tasks_[id];
  const std::vector<std::string> inputs =
      stage_in_datasets(active.task.description());
  if (inputs.empty()) {
    to_scheduling(id);
    return;
  }
  set_state(active, TaskState::staging_input);
  begin_stage_in(id, active);
  // Staging overlaps the queue wait: enter the scheduler immediately;
  // launch is gated on both the grant and the staged inputs.
  to_scheduling(id);
}

void TaskManager::begin_stage_in(EntityId id, Active& active) {
  const std::vector<std::string> inputs =
      stage_in_datasets(active.task.description());
  if (inputs.empty()) return;
  active.stage_in_pending = true;
  if (runtime_.tracer().enabled() && active.trace_stage == 0) {
    active.trace_stage =
        runtime_.tracer().begin("stage-in", "data", active.uid(),
                                runtime_.loop().now(), active.trace_task);
  }
  const std::string zone = active.pilot->cluster().name();
  const std::uint64_t epoch = active.epoch;
  const std::string tenant = active.task.description().tenant;
  std::vector<DataManager::StageTarget> targets;
  targets.reserve(inputs.size());
  for (const auto& name : inputs) targets.push_back({name, zone});
  active.stage_ticket = data_.stage(
      std::move(targets),
      [this, id, inputs, zone, epoch](bool ok,
                                      const std::string& failed_dataset) {
        Active& active = tasks_[id];
        if (active.epoch != epoch) return;  // attempt was interrupted
        active.stage_in_pending = false;
        active.stage_ticket = 0;
        runtime_.tracer().end(active.trace_stage, runtime_.loop().now());
        active.trace_stage = 0;
        if (is_terminal(active.state())) return;
        if (!ok) {
          fail_task(id, strutil::cat("stage-in of '", failed_dataset,
                                     "' failed"));
          return;
        }
        // Pin the landed inputs until the task is terminal: while it
        // waits for its grant, store pressure must not evict them. An
        // input already gone (evicted between its landing and the
        // batch completing) is a staging failure.
        active.input_pin_zone = zone;
        for (const auto& name : inputs) {
          if (!data_.available_in(name, zone)) {
            fail_task(id, strutil::cat("stage-in of '", name,
                                       "' was evicted before launch"));
            return;
          }
          data_.catalog().pin(name, zone, active.task.description().tenant);
          active.input_pins.push_back(name);
        }
        // The grant may have arrived while the data was in flight.
        if (active.primary.slot_held &&
            active.state() == TaskState::scheduled) {
          begin_launch(id);
        }
      },
      tenant);
}

// ---------------------------------------------------------------------------
// Scheduling & execution
// ---------------------------------------------------------------------------

ScheduleRequest TaskManager::make_request(EntityId id, Active& active) {
  const TaskDescription& desc = active.task.description();
  ScheduleRequest request;
  request.uid = active.uid();
  request.cores = desc.cores;
  request.gpus = desc.gpus;
  request.mem_gb = desc.mem_gb;
  request.priority = desc.priority;
  request.tenant = desc.tenant;
  request.input_datasets = stage_in_datasets(desc);
  request.input_bytes = data_.bytes_required(
      request.input_datasets, active.pilot->cluster().name());
  const std::uint64_t epoch = active.epoch;
  const std::string pilot_uid = active.pilot->uid();
  request.granted = [this, id, epoch, pilot_uid](platform::Slot slot,
                                                 platform::Node* node) {
    on_granted(id, epoch, pilot_uid, std::move(slot), node);
  };
  return request;
}

bool TaskManager::enter_scheduling(EntityId id, Pilot& pilot) {
  Active& active = tasks_[id];
  if (is_terminal(active.state())) return false;
  // Oversized tasks fail individually: this runs inside an event-loop
  // callback, where a Scheduler::submit throw would abort the run, and
  // Scheduler::submit_all validates a whole batch up front, where one
  // impossible request must not strand its siblings in SCHEDULING.
  const TaskDescription& desc = active.task.description();
  if (!scheduler_.fits_pilot(pilot.uid(), desc.cores, desc.gpus,
                             desc.mem_gb)) {
    fail_task(id, strutil::cat("request (", desc.cores, "c/", desc.gpus,
                               "g) cannot fit any node of pilot ",
                               pilot.uid()));
    return false;
  }
  set_state(active, TaskState::scheduling);
  open_queue_span(active);
  return true;
}

void TaskManager::open_queue_span(Active& active) {
  if (runtime_.tracer().enabled() && active.trace_queue == 0) {
    active.trace_queue =
        runtime_.tracer().begin("queue-wait", "queue", active.uid(),
                                runtime_.loop().now(), active.trace_task);
  }
}

void TaskManager::to_scheduling(EntityId id) {
  Active& active = tasks_[id];
  if (enter_scheduling(id, *active.pilot)) {
    active.primary.ticket =
        scheduler_.submit(active.pilot->uid(), make_request(id, active));
  }
}

void TaskManager::schedule_batch(Pilot& pilot,
                                 const std::vector<EntityId>& ids) {
  std::vector<EntityId> queued;
  std::vector<ScheduleRequest> requests;
  queued.reserve(ids.size());
  requests.reserve(ids.size());
  for (const EntityId id : ids) {
    if (enter_scheduling(id, pilot)) {
      queued.push_back(id);
      requests.push_back(make_request(id, tasks_[id]));
    }
  }
  if (requests.empty()) return;
  const std::vector<Scheduler::Ticket> tickets =
      scheduler_.submit_all(pilot.uid(), std::move(requests));
  for (std::size_t i = 0; i < queued.size(); ++i) {
    tasks_[queued[i]].primary.ticket = tickets[i];
  }
}

void TaskManager::on_granted(EntityId id, std::uint64_t epoch,
                             const std::string& pilot_uid,
                             platform::Slot slot, platform::Node* node) {
  Active& active = tasks_[id];
  if (is_terminal(active.state()) || active.epoch != epoch) {
    if (scheduler_.has_pilot(pilot_uid)) scheduler_.release(pilot_uid, slot);
    return;
  }
  Attempt& attempt = active.primary;
  if (!node->alive() || slot.incarnation != node->incarnation()) {
    // The node died between placement and this (posted) delivery; the
    // slot died with it. Requeue — the capacity index now excludes the
    // dead node, so the replacement grant lands elsewhere.
    attempt.ticket = scheduler_.submit(pilot_uid, make_request(id, active));
    return;
  }
  attempt.ticket.reset();
  active.task.set_slot(slot);
  attempt.slot = std::move(slot);
  attempt.slot_held = true;
  attempt.node = node;
  bound_[node].push_back(id);
  set_state(active, TaskState::scheduled);
  runtime_.tracer().end(active.trace_queue, runtime_.loop().now());
  active.trace_queue = 0;
  if (active.stage_in_pending) return;  // launch once the inputs land
  begin_launch(id);
}

void TaskManager::begin_launch(EntityId id) {
  Active& active = tasks_[id];
  set_state(active, TaskState::launching);
  // The run span covers launch latency plus payload execution.
  if (runtime_.tracer().enabled() && active.trace_run == 0) {
    active.trace_run =
        runtime_.tracer().begin("run", "compute", active.uid(),
                                runtime_.loop().now(), active.trace_task);
  }
  launch_attempt(id, active, /*twin=*/false);
}

void TaskManager::launch_attempt(EntityId id, Active& active, bool twin) {
  Attempt& attempt = twin ? *active.twin : active.primary;
  // The twin's context uid gives it an RNG stream of its own.
  attempt.ctx = std::make_unique<ExecutionContext>(executor_.make_context(
      twin ? active.uid() + "#spec" : active.uid(), attempt.node->host(),
      active.task.description().payload));
  attempt.ctx->data = &data_;
  attempt.ctx->speed_factor = attempt.node->speed_factor();
  const std::uint64_t epoch = active.epoch;
  executor_.launch(active.pilot->cluster(), 0,
                   [this, id, epoch, twin](sim::Duration) {
                     on_launched(id, epoch, twin);
                   });
}

void TaskManager::on_launched(EntityId id, std::uint64_t epoch, bool twin) {
  Active& active = tasks_[id];
  if (is_terminal(active.state()) || active.epoch != epoch) return;
  Attempt* attempt = twin ? active.twin.get() : &active.primary;
  // A twin whose node crashed while it launched was cancelled.
  if (attempt == nullptr || !attempt->ctx) return;
  if (!twin) set_state(active, TaskState::running);

  attempt->payload = executor_.payloads().create(active.task.description());
  attempt->payload->run(
      *attempt->ctx,
      [this, id, epoch, twin](json::Value result) {
        on_payload_done(id, epoch, std::move(result), twin);
      },
      [this, id, epoch, twin](const std::string& error) {
        on_payload_failed(id, epoch, error, twin);
      });

  if (!twin && speculation_.enabled) {
    const sim::Duration wait =
        std::max(speculation_.min_delay,
                 active.task.description().duration.mean() *
                     speculation_.latency_multiple);
    active.spec_timer = runtime_.loop().call_after(
        wait, [this, id, epoch] { maybe_speculate(id, epoch); });
  }
}

void TaskManager::on_payload_failed(EntityId id, std::uint64_t epoch,
                                    const std::string& error,
                                    bool from_spec) {
  Active& active = tasks_[id];
  if (is_terminal(active.state()) || active.epoch != epoch) return;
  if (from_spec) {
    // A cancelled duplicate's payload cannot be stopped; drop its outcome.
    if (!active.twin) return;
    // The duplicate failed; the primary attempt is still the task.
    cancel_speculation(active);
    record_recovery(active, "spec_failed");
    return;
  }
  fail_task(id, error);
}

void TaskManager::on_payload_done(EntityId id, std::uint64_t epoch,
                                  json::Value result, bool from_spec) {
  Active& active = tasks_[id];
  if (is_terminal(active.state()) || active.epoch != epoch) return;
  // A cancelled duplicate's payload cannot be stopped; drop its outcome.
  if (from_spec && !active.twin) return;
  // First finisher wins. Bump the epoch so the loser's uncancellable
  // completion timer drops itself at the guard above.
  ++active.epoch;
  if (from_spec) {
    ++speculation_wins_;
    record_recovery(active, "spec_win");
    runtime_.counters().add("task.spec_wins");
    runtime_.tracer().instant("spec-win", "task", active.uid(),
                              runtime_.loop().now(), active.trace_task);
    // Promote the duplicate: the straggling primary ends (its slot goes
    // back to the scheduler, its payload before its context) and the
    // twin's record, slot included, becomes the primary.
    end_attempt(active, active.primary);
    active.primary = std::move(*active.twin);
    active.twin.reset();
    active.task.set_slot(active.primary.slot);
    if (active.spec_timer.valid()) {
      runtime_.loop().cancel(active.spec_timer);
      active.spec_timer = {};
    }
  } else {
    cancel_speculation(active);
  }
  runtime_.tracer().end(active.trace_run, runtime_.loop().now());
  active.trace_run = 0;
  active.task.set_result(std::move(result));
  // The payload has read its inputs: stop pinning them, so a finite
  // store can evict them to make room for this task's own outputs.
  release_input_pins(active);
  to_staging_out(id);
}

// ---------------------------------------------------------------------------
// Speculation (straggler mitigation)
// ---------------------------------------------------------------------------

void TaskManager::maybe_speculate(EntityId id, std::uint64_t epoch) {
  Active& active = tasks_[id];
  active.spec_timer = {};
  if (active.epoch != epoch) return;
  if (active.state() != TaskState::running) return;
  if (active.twin) return;
  const std::string pilot_uid = active.pilot->uid();
  if (!scheduler_.has_pilot(pilot_uid)) return;

  const TaskDescription& desc = active.task.description();
  ScheduleRequest request;
  request.uid = active.uid() + "#spec";
  request.cores = desc.cores;
  request.gpus = desc.gpus;
  request.mem_gb = desc.mem_gb;
  request.priority = desc.priority;
  request.tenant = desc.tenant;
  request.granted = [this, id, epoch, pilot_uid](platform::Slot slot,
                                                 platform::Node* node) {
    on_spec_granted(id, epoch, pilot_uid, std::move(slot), node);
  };
  active.twin = std::make_unique<Attempt>();
  active.twin->ticket = scheduler_.submit(pilot_uid, std::move(request));
  record_recovery(active, "speculate");
  runtime_.counters().add("task.speculations");
  runtime_.tracer().instant("speculate", "task", active.uid(),
                            runtime_.loop().now(), active.trace_task);
}

void TaskManager::on_spec_granted(EntityId id, std::uint64_t epoch,
                                  const std::string& pilot_uid,
                                  platform::Slot slot, platform::Node* node) {
  Active& active = tasks_[id];
  // Each epoch queues at most one twin, and a queued twin ends only
  // with its epoch or its task, so a grant that is not stale finds it.
  if (is_terminal(active.state()) || active.epoch != epoch ||
      active.state() != TaskState::running || !active.twin) {
    if (scheduler_.has_pilot(pilot_uid)) scheduler_.release(pilot_uid, slot);
    return;
  }
  Attempt& twin = *active.twin;
  twin.ticket.reset();
  if (!node->alive() || slot.incarnation != node->incarnation()) {
    active.twin.reset();  // the duplicate's node died in flight; drop it
    return;
  }
  twin.slot = std::move(slot);
  twin.node = node;
  twin.slot_held = true;
  bound_[node].push_back(id);
  ++speculations_;
  launch_attempt(id, active, /*twin=*/true);
}

void TaskManager::cancel_speculation(Active& active) {
  if (active.spec_timer.valid()) {
    runtime_.loop().cancel(active.spec_timer);
    active.spec_timer = {};
  }
  if (!active.twin) return;
  end_attempt(active, *active.twin);
  active.twin.reset();
}

void TaskManager::end_attempt(Active& active, Attempt& attempt) {
  if (attempt.ticket || attempt.slot_held) {
    // A preempted pilot is already deregistered, its queue and slots
    // gone with it.
    const std::string& pilot_uid = active.pilot->uid();
    if (scheduler_.has_pilot(pilot_uid)) {
      if (attempt.ticket) scheduler_.cancel(pilot_uid, *attempt.ticket);
      if (attempt.slot_held) scheduler_.release(pilot_uid, attempt.slot);
    }
    attempt.ticket.reset();
    attempt.slot_held = false;
  }
  attempt.payload.reset();
  attempt.ctx.reset();
  attempt.node = nullptr;
  attempt.slot = {};  // Task::slot() keeps the primary's for reporting
}

// ---------------------------------------------------------------------------
// Failure handling & re-placement
// ---------------------------------------------------------------------------

void TaskManager::record_recovery(const Active& active,
                                  const std::string& event) {
  const std::string line =
      strutil::cat(strutil::format_fixed(runtime_.loop().now(), 6), " ",
                   active.uid(), " ", event);
  recovery_log_.push_back(line);
  recovery_hash_ = common::fnv1a(recovery_hash_, line);
}

void TaskManager::interrupt_task(EntityId id, const std::string& reason,
                                 Pilot* replacement) {
  Active& active = tasks_[id];
  if (is_terminal(active.state())) return;
  // Invalidate every callback of the interrupted attempt (payload
  // completions cannot be cancelled, grants may be posted in flight).
  ++active.epoch;
  close_phase_spans(active);
  if (active.restart_timer.valid()) {
    runtime_.loop().cancel(active.restart_timer);
    active.restart_timer = {};
  }
  cancel_speculation(active);
  data_.cancel_stage(std::exchange(active.stage_ticket, 0));
  active.stage_in_pending = false;
  release_input_pins(active);
  // End before any re-bind: the request and slot belong to the old pilot.
  end_attempt(active, active.primary);
  if (replacement != nullptr) {
    active.pilot = replacement;
    active.task.set_pilot_uid(replacement->uid());
  }
  if (active.restarts >= restart_policy_.max_restarts) {
    fail_task(id, strutil::cat(reason, " (restart budget exhausted after ",
                               active.restarts, " restarts)"));
    return;
  }
  ++active.restarts;
  ++restarts_total_;
  double step = restart_policy_.backoff *
                std::pow(restart_policy_.multiplier, active.restarts - 1);
  step = std::min(step, restart_policy_.max_backoff);
  const double delay =
      restart_policy_.jitter ? step * restart_rng_.uniform(0.5, 1.5) : step;
  set_state(active, TaskState::scheduling);
  record_recovery(active,
                  strutil::cat("restart", active.restarts, " ", reason));
  runtime_.counters().add("task.restarts");
  // The recovery span covers the backoff wait until re-submission.
  if (runtime_.tracer().enabled()) {
    active.trace_recover = runtime_.tracer().begin(
        "recovery", "recovery", active.uid(), runtime_.loop().now(),
        active.trace_task, {{"reason", reason}});
  }
  const std::uint64_t epoch = active.epoch;
  active.restart_timer = runtime_.loop().call_after(
      delay, [this, id, epoch] { resume_restart(id, epoch); });
}

void TaskManager::resume_restart(EntityId id, std::uint64_t epoch) {
  Active& active = tasks_[id];
  if (is_terminal(active.state()) || active.epoch != epoch) return;
  active.restart_timer = {};
  const TaskDescription& desc = active.task.description();
  if (!scheduler_.has_pilot(active.pilot->uid()) ||
      !scheduler_.fits_pilot(active.pilot->uid(), desc.cores, desc.gpus,
                             desc.mem_gb)) {
    fail_task(id, strutil::cat("restart: pilot ", active.pilot->uid(),
                               " cannot host the task any more"));
    return;
  }
  runtime_.tracer().end(active.trace_recover, runtime_.loop().now());
  active.trace_recover = 0;
  open_queue_span(active);
  // Re-stage inputs: datasets still resident in the pilot's zone land
  // instantly, anything lost with a failed store is re-fetched.
  begin_stage_in(id, active);
  active.primary.ticket =
      scheduler_.submit(active.pilot->uid(), make_request(id, active));
}

std::size_t TaskManager::handle_node_failure(const platform::Node& node) {
  // Only tasks bound to the node, as primary or speculative twin, can be
  // affected, and they are handled in uid order. Grants are posted,
  // never synchronous, so none becomes bound to it while the loop below
  // runs.
  const auto entry = bound_.find(&node);
  if (entry == bound_.end()) return 0;
  std::vector<EntityId>& bound = entry->second;
  const auto unbound = [this, &node](EntityId id) {
    const Active& active = tasks_[id];
    return is_terminal(active.state()) ||
           (active.primary.node != &node &&
            (!active.twin || active.twin->node != &node));
  };
  bound.erase(std::remove_if(bound.begin(), bound.end(), unbound),
              bound.end());
  tasks_.sort_by_uid(bound);
  bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
  std::size_t interrupted = 0;
  for (const EntityId id : bound) {
    Active& active = tasks_[id];
    if (is_terminal(active.state())) continue;
    if (active.twin && active.twin->node == &node) {
      cancel_speculation(active);
      record_recovery(active, "spec_lost_node");
    }
    if (active.primary.node != &node || !active.primary.slot_held) continue;
    // STAGING_OUTPUT attempts keep their results: outputs are zone-level
    // transfers that survive the node; the stale slot release is a no-op.
    if (active.state() == TaskState::staging_output) continue;
    interrupt_task(id, strutil::cat("node ", node.id(), " failed"),
                   /*replacement=*/nullptr);
    ++interrupted;
  }
  bound.erase(std::remove_if(bound.begin(), bound.end(), unbound),
              bound.end());
  return interrupted;
}

std::size_t TaskManager::handle_pilot_loss(
    const std::string& pilot_uid, const std::vector<Pilot*>& survivors) {
  std::size_t moved = 0;
  for (const EntityId id : tasks_.in_uid_order()) {
    Active& active = tasks_[id];
    if (is_terminal(active.state())) continue;
    if (active.pilot->uid() != pilot_uid) continue;
    const TaskDescription& desc = active.task.description();
    Pilot* replacement = nullptr;
    for (Pilot* candidate : survivors) {
      if (candidate == nullptr || candidate->uid() == pilot_uid) continue;
      if (scheduler_.has_pilot(candidate->uid()) &&
          scheduler_.fits_pilot(candidate->uid(), desc.cores, desc.gpus,
                                desc.mem_gb)) {
        replacement = candidate;
        break;
      }
    }
    if (replacement == nullptr) {
      fail_task(id, strutil::cat("pilot ", pilot_uid,
                                 " preempted, no surviving pilot fits"));
      continue;
    }
    const TaskState state = active.state();
    if (state == TaskState::created || state == TaskState::waiting ||
        state == TaskState::staging_output) {
      // Not holding pilot resources worth restarting for: just re-bind.
      // (A staging-out attempt's outputs are zone-level and keep going;
      // its slot died with the pilot, so only drop the local handle.)
      active.primary.slot_held = false;
      active.pilot = replacement;
      active.task.set_pilot_uid(replacement->uid());
      record_recovery(active, strutil::cat("rebind ", replacement->uid()));
      ++moved;
      continue;
    }
    interrupt_task(id, strutil::cat("pilot ", pilot_uid, " preempted"),
                   replacement);
    ++moved;
  }
  return moved;
}

// ---------------------------------------------------------------------------
// Staging out & completion
// ---------------------------------------------------------------------------

void TaskManager::to_staging_out(EntityId id) {
  Active& active = tasks_[id];
  std::vector<StagingDirective> outputs;
  for (const auto& directive : active.task.description().staging) {
    if (directive.action == StagingDirective::Action::stage_out) {
      outputs.push_back(directive);
    }
  }
  if (outputs.empty()) {
    finish(id);
    return;
  }
  set_state(active, TaskState::staging_output);
  if (runtime_.tracer().enabled() && active.trace_stage == 0) {
    active.trace_stage =
        runtime_.tracer().begin("stage-out", "data", active.uid(),
                                runtime_.loop().now(), active.trace_task);
  }
  const std::string pilot_zone = active.pilot->cluster().name();
  // Register products first: a full store rejecting the output is a
  // task failure, not a crash (this runs inside an event-loop callback,
  // where a throw would abort the whole run).
  for (const auto& directive : outputs) {
    if (data_.has(directive.dataset)) continue;
    const double bytes = active.task.description()
                             .payload.get_or("output_bytes", 1e6)
                             .as_double();
    try {
      data_.register_dataset(directive.dataset, bytes, pilot_zone);
    } catch (const Error& error) {
      fail_task(id, strutil::cat("stage-out of '", directive.dataset,
                                 "' failed: ", error.what()));
      return;
    }
  }
  // Tracked like stage-in: the first failed output cancels the task's
  // surviving output transfers instead of leaving them running
  // untracked (transfers shared with other callers keep running).
  std::vector<DataManager::StageTarget> targets;
  targets.reserve(outputs.size());
  for (const auto& directive : outputs) {
    targets.push_back({directive.dataset, directive.zone.empty()
                                              ? pilot_zone
                                              : directive.zone});
  }
  active.stage_ticket = data_.stage(
      std::move(targets),
      [this, id](bool ok, const std::string& failed_dataset) {
        Active& active = tasks_[id];
        active.stage_ticket = 0;
        if (is_terminal(active.state())) return;
        if (!ok) {
          fail_task(id, strutil::cat("stage-out of '", failed_dataset,
                                     "' failed"));
          return;
        }
        runtime_.tracer().end(active.trace_stage, runtime_.loop().now());
        active.trace_stage = 0;
        finish(id);
      },
      active.task.description().tenant);
}

void TaskManager::finish(EntityId id) {
  Active& active = tasks_[id];
  if (is_terminal(active.state())) return;
  release_input_pins(active);
  end_attempt(active, active.primary);
  close_phase_spans(active);
  close_task_span(active, "done");
  runtime_.counters().add("task.done");
  set_state(active, TaskState::done);
}

void TaskManager::close_phase_spans(Active& active) {
  const double now = runtime_.loop().now();
  auto& tracer = runtime_.tracer();
  tracer.end(active.trace_queue, now);
  tracer.end(active.trace_stage, now);
  tracer.end(active.trace_run, now);
  tracer.end(active.trace_recover, now);
  active.trace_queue = 0;
  active.trace_stage = 0;
  active.trace_run = 0;
  active.trace_recover = 0;
}

void TaskManager::close_task_span(Active& active, const char* state) {
  if (active.trace_task == 0) return;
  runtime_.tracer().arg(active.trace_task, "state", state);
  runtime_.tracer().end(active.trace_task, runtime_.loop().now());
  active.trace_task = 0;
}

void TaskManager::release_input_pins(Active& active) {
  for (const auto& name : active.input_pins) {
    // Unpin under the same tenant that pinned — per-tenant pin counts
    // must pair exactly.
    data_.catalog().unpin(name, active.input_pin_zone,
                          active.task.description().tenant);
  }
  active.input_pins.clear();
}

void TaskManager::fail_task(EntityId id, const std::string& error) {
  Active& active = tasks_[id];
  if (is_terminal(active.state())) return;
  log_.error(active.uid(), ": ", error);
  active.task.set_error(error);
  waiting_.erase(active.uid());
  if (active.restart_timer.valid()) {
    runtime_.loop().cancel(active.restart_timer);
    active.restart_timer = {};
  }
  cancel_speculation(active);
  data_.cancel_stage(std::exchange(active.stage_ticket, 0));
  active.stage_in_pending = false;
  release_input_pins(active);
  // Staging can fail while the request queues (overlapped stage-in):
  // ending the attempt drops the queue entry, so the scheduler never
  // grants a dead task.
  end_attempt(active, active.primary);
  close_phase_spans(active);
  close_task_span(active, "failed");
  runtime_.counters().add("task.failed");
  set_state(active, TaskState::failed);
}

bool TaskManager::cancel(const std::string& uid) {
  Active& active = tasks_.at(uid);
  const TaskState state = active.state();
  switch (state) {
    case TaskState::created:
    case TaskState::waiting:
    case TaskState::staging_input:
    case TaskState::scheduling: break;
    // Launch is imminent unless the task is parked on overlapped
    // stage-in; in that window the slot is reclaimable.
    case TaskState::scheduled:
      if (!active.stage_in_pending) return false;
      break;
    default: return false;
  }
  data_.cancel_stage(std::exchange(active.stage_ticket, 0));
  active.stage_in_pending = false;
  release_input_pins(active);
  end_attempt(active, active.primary);
  waiting_.erase(active.uid());
  close_phase_spans(active);
  close_task_span(active, "canceled");
  set_state(active, TaskState::canceled);
  return true;
}

}  // namespace ripple::core
