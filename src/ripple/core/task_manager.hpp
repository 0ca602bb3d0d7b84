#pragma once

/// \file task_manager.hpp
/// The TaskManager: stateful task lifecycle management.
///
/// Drives each task through CREATED -> (WAITING) -> (STAGING_INPUT) ->
/// SCHEDULING -> SCHEDULED -> LAUNCHING -> RUNNING -> (STAGING_OUTPUT)
/// -> DONE, honouring task dependencies and service readiness relations
/// ("services often have to be started before any computing task",
/// paper section III). Data staging goes through the DataManager.
///
/// Failure is first-class: a node crash or pilot preemption interrupts
/// the placed attempt (handle_node_failure / handle_pilot_loss) and the
/// task re-enters SCHEDULING after an exponential backoff with jitter,
/// up to RestartPolicy::max_restarts attempts. Every launched attempt
/// carries an epoch; callbacks from a dead attempt (the uncancellable
/// payload completion of a crashed incarnation, a stale grant) compare
/// epochs on entry and drop themselves. The same guard powers straggler
/// mitigation: with speculation enabled, a task RUNNING for longer than
/// its expected duration times SpeculationPolicy::latency_multiple gets
/// a duplicate attempt on another slot — the first finisher wins and
/// the loser is cancelled.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/core/data_manager.hpp"
#include "ripple/core/descriptions.hpp"
#include "ripple/core/entities.hpp"
#include "ripple/core/entity_table.hpp"
#include "ripple/core/executor.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/core/service_manager.hpp"

namespace ripple::core {

class TaskManager {
 public:
  /// Re-placement policy for tasks interrupted by failures.
  struct RestartPolicy {
    int max_restarts = 0;             ///< 0 = fail-stop (legacy behavior)
    sim::Duration backoff = 1.0;      ///< first restart delay
    double multiplier = 2.0;          ///< exponential growth per restart
    sim::Duration max_backoff = 60.0;
    bool jitter = true;               ///< x uniform[0.5, 1.5), seeded
  };

  /// Speculative-duplicate policy for stragglers.
  struct SpeculationPolicy {
    bool enabled = false;
    /// Duplicate once RUNNING exceeds expected duration x this.
    double latency_multiple = 3.0;
    sim::Duration min_delay = 1.0;
  };

  TaskManager(Runtime& runtime, Scheduler& scheduler, Executor& executor,
              DataManager& data, ServiceManager& services);

  void set_restart_policy(RestartPolicy policy) noexcept {
    restart_policy_ = policy;
  }
  void set_speculation(SpeculationPolicy policy) noexcept {
    speculation_ = policy;
  }

  /// A node crashed: every attempt placed on it is interrupted and the
  /// task re-placed on its pilot per the restart policy (slots died
  /// with the node; queued requests simply avoid it via the capacity
  /// index). Returns the number of tasks interrupted.
  std::size_t handle_node_failure(const platform::Node& node);

  /// A pilot was preempted (its scheduler entry is already gone): every
  /// non-terminal task bound to it moves to the first surviving pilot
  /// that fits, re-entering the queue per the restart policy; with no
  /// fitting survivor the task fails. Returns tasks re-bound.
  std::size_t handle_pilot_loss(const std::string& pilot_uid,
                                const std::vector<Pilot*>& survivors);

  [[nodiscard]] std::uint64_t restarts_total() const noexcept {
    return restarts_total_;
  }
  [[nodiscard]] std::uint64_t speculations() const noexcept {
    return speculations_;
  }
  [[nodiscard]] std::uint64_t speculation_wins() const noexcept {
    return speculation_wins_;
  }

  /// Ordered "t uid event" lines for every restart/speculation decision
  /// — the failure-determinism oracle, FNV-fingerprinted.
  [[nodiscard]] const std::vector<std::string>& recovery_log()
      const noexcept {
    return recovery_log_;
  }
  [[nodiscard]] std::uint64_t recovery_log_hash() const noexcept {
    return recovery_hash_;
  }

  /// Submits one task into `pilot`; returns its uid. Dependencies named
  /// in the description must already exist.
  std::string submit(Pilot& pilot, TaskDescription desc);

  /// Locality-aware submission: places the task on whichever candidate
  /// pilot minimizes the bytes its stage-in datasets must move
  /// (data::PlacementAdvisor ranking; ties keep caller order, so
  /// data-less tasks go to the first candidate).
  std::string submit_any(const std::vector<Pilot*>& candidates,
                         TaskDescription desc);

  /// Submits a batch; returns uids in order. Tasks that are immediately
  /// runnable (no pending dependency, no stage-in) enter the scheduler
  /// through one batch submit_all pass — priorities are enacted across
  /// the whole batch and the pilot's queue is scanned once, not N
  /// times. Tasks within a batch may depend on each other.
  std::vector<std::string> submit_all(Pilot& pilot,
                                      std::vector<TaskDescription> descs);

  [[nodiscard]] const Task& get(const std::string& uid) const {
    return tasks_.at(uid).task;
  }
  [[nodiscard]] bool exists(const std::string& uid) const {
    return tasks_.exists(uid);
  }
  [[nodiscard]] std::vector<std::string> uids() const {
    return tasks_.uids();
  }
  [[nodiscard]] std::size_t count_in_state(TaskState state) const {
    return tasks_.count_in_state(state);
  }

  /// Cancels a task that has not yet been placed (waiting/staging/
  /// queued). Returns false once the task holds resources.
  bool cancel(const std::string& uid);

  /// Fires cb(all_done) when every listed task is terminal; `all_done`
  /// is true iff all of them finished in DONE.
  void when_done(std::vector<std::string> uids,
                 std::function<void(bool all_done)> on_done);

 private:
  /// One when_done registration. Shared by the watched tasks that were
  /// not yet terminal when it registered; fires when the last settles.
  struct DoneWatcher {
    std::size_t remaining = 0;  ///< distinct watched tasks not terminal
    bool all_done = true;       ///< no watched task ended outside DONE
    std::function<void(bool)> on_done;
  };

  /// One attempt at the task's work: the primary, or its speculative
  /// duplicate (the twin). It holds a ticket while its request queues,
  /// then a slot on `node`. Its context and payload live from launch to
  /// the end of the attempt (end_attempt); the payload is destroyed
  /// first, so it never outlives its context (declaration order keeps
  /// that true when the record is destroyed).
  struct Attempt {
    std::optional<Scheduler::Ticket> ticket;  ///< request still queued
    platform::Node* node = nullptr;           ///< placement, set on grant
    platform::Slot slot;
    bool slot_held = false;
    std::unique_ptr<ExecutionContext> ctx;
    std::unique_ptr<TaskPayload> payload;
  };

  struct Active {
    Active(std::string uid, TaskDescription desc)
        : task(std::move(uid), std::move(desc)) {}
    [[nodiscard]] const std::string& uid() const { return task.uid(); }
    [[nodiscard]] TaskState state() const { return task.state(); }

    Task task;
    metrics::Timeline::EntityId timeline = 0;
    Pilot* pilot = nullptr;
    /// The current attempt; Task::slot() mirrors its slot from grant on.
    Attempt primary;
    /// Stage-in still in flight. Staging overlaps the scheduler queue
    /// wait: the task enters SCHEDULING immediately and launch is gated
    /// on both the grant and this flag clearing.
    bool stage_in_pending = false;
    /// The pending staging call (overlapped stage-in, then stage-out);
    /// 0 when none. Cancelled with the task so abandoned transfers stop
    /// consuming link bandwidth.
    DataManager::StageTicket stage_ticket = 0;
    /// Inputs pinned in the pilot's zone from stage-in completion until
    /// the payload finishes reading them — store pressure while the
    /// task waits for its grant must not evict what was just staged.
    std::vector<std::string> input_pins;
    std::string input_pin_zone;
    /// Attempt generation. Bumped when an attempt is interrupted (node
    /// crash, pilot loss) or decided (speculation winner); callbacks
    /// capture the epoch they were created under and drop themselves
    /// on mismatch — payload completions cannot be cancelled.
    std::uint64_t epoch = 0;
    int restarts = 0;
    sim::EventLoop::TimerHandle restart_timer{};
    /// Speculative duplicate (straggler mitigation): the timer that
    /// arms it, then the twin attempt from its request until it ends or
    /// wins and becomes the primary.
    sim::EventLoop::TimerHandle spec_timer{};
    std::unique_ptr<Attempt> twin;
    /// Tracer handles (0 while closed or tracing disabled): the task's
    /// root span plus the open phase span of the current attempt —
    /// queue wait, stage-in/out, run, recovery backoff. Restarts close
    /// and re-open phases, so a restarted task shows every attempt.
    metrics::SpanId trace_task = 0;
    metrics::SpanId trace_queue = 0;
    metrics::SpanId trace_stage = 0;
    metrics::SpanId trace_run = 0;
    metrics::SpanId trace_recover = 0;
    /// when_done registrations waiting on this task, in registration
    /// order; settled when the task turns terminal.
    std::vector<std::shared_ptr<DoneWatcher>> watchers;
  };

  enum class Readiness { ready, pending, broken };

  [[nodiscard]] Readiness readiness(const Active& active,
                                    std::string* blocker) const;

  /// Validates a description and registers the task; the caller decides
  /// when (and how) evaluation happens.
  EntityId create_task(Pilot& pilot, TaskDescription desc);

  /// When `batch` is non-null, tasks that are ready to schedule with no
  /// stage-in are collected there instead of being submitted one by one.
  void evaluate(EntityId id, std::vector<EntityId>* batch = nullptr);
  void schedule_batch(Pilot& pilot, const std::vector<EntityId>& ids);
  [[nodiscard]] ScheduleRequest make_request(EntityId id, Active& active);
  void to_staging_in(EntityId id);
  /// Moves a live task that fits `pilot` to SCHEDULING (failing one that
  /// cannot fit); true when its request should go to the scheduler.
  bool enter_scheduling(EntityId id, Pilot& pilot);
  void open_queue_span(Active& active);
  void to_scheduling(EntityId id);
  /// Starts (or restarts) the overlapped stage-in batch for `id`.
  void begin_stage_in(EntityId id, Active& active);
  void on_granted(EntityId id, std::uint64_t epoch,
                  const std::string& pilot_uid, platform::Slot slot,
                  platform::Node* node);
  /// Slot held and inputs local: transition to LAUNCHING and start.
  void begin_launch(EntityId id);
  /// Creates the primary's (or the twin's) context on its node and
  /// launches it; on_launched starts its payload.
  void launch_attempt(EntityId id, Active& active, bool twin);
  void on_launched(EntityId id, std::uint64_t epoch, bool twin);
  void on_payload_done(EntityId id, std::uint64_t epoch, json::Value result,
                       bool from_spec);
  void on_payload_failed(EntityId id, std::uint64_t epoch,
                         const std::string& error, bool from_spec);
  /// Ends an attempt: drops its queued request and returns its slot
  /// (while its pilot is registered), then destroys its payload and
  /// its context.
  void end_attempt(Active& active, Attempt& attempt);
  void to_staging_out(EntityId id);
  void finish(EntityId id);
  void fail_task(EntityId id, const std::string& error);
  /// Tears down the current attempt (epoch bump, slot/pins/staging
  /// released) and either re-queues the task after backoff or fails it
  /// once the restart budget is spent. `replacement` re-binds the task
  /// first when non-null (a preempted pilot is already deregistered,
  /// so nothing goes back to it).
  void interrupt_task(EntityId id, const std::string& reason,
                      Pilot* replacement);
  void resume_restart(EntityId id, std::uint64_t epoch);
  /// Arms / fires / settles the speculative duplicate.
  void maybe_speculate(EntityId id, std::uint64_t epoch);
  void on_spec_granted(EntityId id, std::uint64_t epoch,
                       const std::string& pilot_uid, platform::Slot slot,
                       platform::Node* node);
  void cancel_speculation(Active& active);
  void record_recovery(const Active& active, const std::string& event);
  /// Closes every open phase span of the current attempt (teardown on
  /// interrupt/finish/fail); no-op while tracing is disabled.
  void close_phase_spans(Active& active);
  /// Closes the task's root span with a terminal-state annotation.
  void close_task_span(Active& active, const char* state);
  void release_input_pins(Active& active);
  void set_state(Active& active, TaskState state);
  /// Posts the dependency re-check when it can release or fail a task:
  /// a task is waiting, or a queued evaluation event has tasks left to
  /// evaluate. Only that evaluation makes a task wait, so otherwise no
  /// task can be waiting when the re-check would run.
  void post_recheck();
  void recheck_waiting();
  /// Counts `active`'s terminal transition against its watchers and
  /// posts each one that has no watched task left, in registration order.
  void settle_watchers(Active& active);
  void post_watcher(DoneWatcher& watcher);

  Runtime& runtime_;
  Scheduler& scheduler_;
  Executor& executor_;
  DataManager& data_;
  ServiceManager& services_;
  common::Logger log_;
  EntityTable<Active> tasks_{"task"};
  /// Tasks in WAITING, keyed (and re-checked) in uid order.
  std::map<std::string_view, EntityId> waiting_;
  /// Tasks that queued evaluation events have not reached yet.
  std::size_t queued_evaluations_ = 0;
  /// Node -> tasks granted a slot on it (primary or twin) that may still
  /// hold it; a node crash walks only its own entry.
  std::unordered_map<const platform::Node*, std::vector<EntityId>> bound_;
  RestartPolicy restart_policy_;
  SpeculationPolicy speculation_;
  /// Dedicated stream for backoff jitter: restart delays must not
  /// perturb (or be perturbed by) other components' draws.
  common::Rng restart_rng_;
  std::uint64_t restarts_total_ = 0;
  std::uint64_t speculations_ = 0;
  std::uint64_t speculation_wins_ = 0;
  std::vector<std::string> recovery_log_;
  std::uint64_t recovery_hash_ = common::kFnvOffsetBasis;
};

}  // namespace ripple::core
