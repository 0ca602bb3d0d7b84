#pragma once

/// \file scheduler.hpp
/// Continuous slot scheduler with service/task priority relations.
///
/// Extends RADICAL-Pilot's agent scheduler the way the paper describes:
/// "We extended the existing Scheduler to enact priority relations
/// between services and tasks". Requests are ordered by (priority desc,
/// submission order); placement is first-fit over the pilot's nodes.
/// Policy `backfill` (default, matching RADICAL-Pilot) lets smaller
/// requests overtake a blocked head-of-queue; `fifo` enforces strict
/// order — the ablation bench compares the two.
///
/// Placement is indexed, not scanned: each pilot keeps a
/// platform::CapacityIndex (segment tree over its nodes' free capacity,
/// updated incrementally on allocate/release) answering first-fit
/// queries in O(log nodes), and a WaitQueue (balanced-tree priority
/// queue with per-shape buckets) making submit/cancel O(log waiting).
/// Grant order is identical to a linear first-fit rescan of the old
/// deque-based scheduler; only the cost changes.
///
/// A queued request is named by its ticket: the wait-queue key (its
/// priority and a scheduler-global sequence number) that submit and
/// submit_all return. cancel takes the ticket; a ticket is never
/// reissued, so cancelling one whose request was already granted or
/// cancelled is a no-op that returns false. The request's uid only
/// feeds the grant fingerprint and error messages.
///
/// One backfill pass, one composite key. A backfill pass grants in
/// (priority desc, tenant share asc, non-residency asc, sequence asc)
/// order, and each component that is switched off is constant:
///  * the tenant's weighted dominant share counts while fair share is
///    on (set_tenant_weight);
///  * non-residency counts while only the locality oracle is on
///    (set_locality_oracle — typically the data plane's catalog lookup,
///    threaded in from outside so core/ stays decoupled from data/): a
///    request whose declared inputs still have bytes to move into the
///    pilot's zone ranks after the resident requests of its priority
///    class. When every footprint is zero the order is bit-identical to
///    the oracle-less pass. Fair share ignores residency.
/// The pass does not walk the queue. It merges the wait queue's bucket
/// heads (one bucket per request shape and tenant) in a min-heap on the
/// key, probes first_fit once per popped head, grants it and pushes the
/// bucket's next member, and drops a bucket at its first miss: capacity
/// only shrinks within a pass, so the rest of that shape cannot fit
/// either. That grants exactly what the per-request scan granted, in
/// the same order on the same nodes, with O(buckets + grants) probes.
/// An input-declaring bucket under the oracle splits per pass into a
/// resident and a non-resident run, one oracle call per member. `fifo`
/// keeps the in-order walk that stops at the first head that does not
/// fit.
///
/// One placement path. Every entry point enqueues requests or frees
/// capacity on one pilot and then runs one full pass over that pilot's
/// queue on the loop thread: submit (a batch of one), submit_all,
/// release and reschedule. The pass commits each grant as it makes it:
/// wait-time stats, the grant counter, the tenant's share, the rolling
/// grant-order FNV fingerprint (grant_log_hash) and the posted granted
/// callback. cancel never runs a pass.
///
/// Weighted fair-share (multi-tenant arbitration). Opt-in via
/// set_tenant_weight; fifo ignores it (strict order is the point of
/// fifo). DRF-style: a request's cost is its dominant resource fraction
/// of the pilot (max of cores/total, gpus/total, mem/total) divided by
/// the tenant's weight, accumulated against the tenant as grants
/// commit. A pass reads the shares at its start, so the grant order is
/// a pure function of committed history: bit-identical across reruns.
/// The wait queue's keys are never touched, so clearing the weights
/// restores the native order exactly.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/core/entities.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler_request.hpp"
#include "ripple/core/wait_queue.hpp"
#include "ripple/platform/capacity_index.hpp"
#include "ripple/platform/node.hpp"

namespace ripple::core {

class Scheduler {
 public:
  /// Names a queued request (see file comment).
  using Ticket = WaitQueue::Key;

  explicit Scheduler(Runtime& runtime,
                     SchedulerPolicy policy = SchedulerPolicy::backfill);

  void set_policy(SchedulerPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] SchedulerPolicy policy() const noexcept { return policy_; }

  /// Live residency lookup: bytes of `datasets` that still have to move
  /// into `zone` (0 == fully resident). Queried at placement time, so
  /// the answer tracks the catalog, not the submission-time snapshot in
  /// ScheduleRequest::input_bytes.
  using LocalityOracle = std::function<double(
      const std::vector<std::string>& datasets, const std::string& zone)>;

  /// Makes backfill data-aware (see file comment). A null oracle
  /// restores the data-blind scan.
  void set_locality_oracle(LocalityOracle oracle);
  [[nodiscard]] bool data_aware() const noexcept {
    return static_cast<bool>(oracle_);
  }

  /// Registers (or updates) a tenant's fair-share weight; weight must
  /// be > 0. The first registration activates fair-share arbitration
  /// (see file comment). Tenants submitting without a registered
  /// weight arbitrate at weight 1.
  void set_tenant_weight(const std::string& tenant, double weight);
  [[nodiscard]] bool fair_share() const noexcept {
    return !tenant_weights_.empty();
  }

  /// Cumulative weighted dominant share granted to `tenant` so far
  /// (the quantity fair-share equalizes; 0 for unknown tenants).
  [[nodiscard]] double tenant_share(const std::string& tenant) const;

  /// Registers a pilot's nodes with the scheduler.
  void add_pilot(Pilot& pilot);

  /// Drops a pilot; pending requests for it are discarded.
  void remove_pilot(const std::string& pilot_uid);

  [[nodiscard]] bool has_pilot(const std::string& pilot_uid) const noexcept {
    return pilots_.count(pilot_uid) != 0;
  }

  /// Re-runs a full placement pass after node capacity changed outside
  /// the release path (a crashed node rejoining, capacity freed by a
  /// node death). Returns the number granted.
  std::size_t reschedule(const std::string& pilot_uid);

  /// Enqueues a request against a pilot's resources and runs one
  /// placement pass: a batch of one. Returns the request's ticket.
  /// Throws capacity when the request can never fit on any node of the
  /// pilot.
  Ticket submit(const std::string& pilot_uid, ScheduleRequest request);

  /// Enqueues a batch, then runs one placement pass over the whole
  /// queue. Unlike N submit() calls, priorities are enacted across the
  /// entire batch before any placement, and the pilot's queue is
  /// passed over once instead of N times. Returns the requests'
  /// tickets, in request order.
  std::vector<Ticket> submit_all(const std::string& pilot_uid,
                                 std::vector<ScheduleRequest> requests);

  /// Rolling FNV-1a fingerprint of the committed grant order (request
  /// uid, node id, slot shape — in commit order). Same seed, same
  /// fingerprint.
  [[nodiscard]] std::uint64_t grant_log_hash() const noexcept {
    return grant_hash_;
  }

  /// True when a request of this shape could ever fit some node of the
  /// pilot (the submit-time capacity precondition). O(distinct node
  /// shapes), i.e. O(1) for homogeneous pilots.
  [[nodiscard]] bool fits_pilot(const std::string& pilot_uid,
                                std::size_t cores, std::size_t gpus,
                                double mem_gb) const;

  /// Removes a queued (not yet granted) request. Returns false if the
  /// request was already granted or cancelled, or the ticket is not
  /// one of this pilot's.
  bool cancel(const std::string& pilot_uid, const Ticket& ticket);

  /// Returns a granted slot; wakes the queue.
  void release(const std::string& pilot_uid, const platform::Slot& slot);

  [[nodiscard]] std::size_t queue_length(const std::string& pilot_uid) const;

  /// Total queued (not yet granted) requests across all pilots — the
  /// waitqueue-length gauge sampled by metrics::Counters.
  [[nodiscard]] std::size_t waiting_total() const;

  [[nodiscard]] std::uint64_t granted_total() const noexcept {
    return granted_;
  }

  /// Distribution of queue wait times (seconds) across all grants.
  [[nodiscard]] const common::Summary& wait_times() const noexcept {
    return wait_times_;
  }

 private:
  struct PilotEntry {
    Pilot* pilot = nullptr;
    WaitQueue waiting;
    platform::CapacityIndex index;
    /// Distinct node shapes of the pilot, for O(1) can-ever-fit checks.
    std::vector<platform::NodeSpec> distinct_specs;
    /// Pilot-wide capacity totals (denominators of the DRF dominant
    /// resource fraction), summed once at add_pilot.
    std::size_t total_cores = 0;
    std::size_t total_gpus = 0;
    double total_mem = 0.0;
  };

  void validate_fits_pilot(const PilotEntry& entry,
                           const ScheduleRequest& request) const;
  Ticket enqueue(PilotEntry& entry, ScheduleRequest request);

  /// Allocates on `node`, removes the entry and commits the grant:
  /// wait-time stats, grant counter, tenant share, rolling FNV
  /// fingerprint, callback post.
  void grant(PilotEntry& entry, WaitQueue::iterator position,
             platform::Node& node);

  /// Full placement pass; returns grants made. Every entry still queued
  /// afterwards does not fit the current capacity (backfill) or sits
  /// behind a blocked head (fifo).
  std::size_t try_schedule(PilotEntry& entry);

  /// The backfill pass (see file comment): merges the wait queue's
  /// bucket heads on the composite key, probes one head at a time and
  /// drops a bucket at its first miss.
  std::size_t backfill(PilotEntry& entry);

  /// DRF dominant resource fraction of `request` on this pilot.
  [[nodiscard]] double dominant_fraction(const PilotEntry& entry,
                                         const ScheduleRequest& request) const;
  [[nodiscard]] double weight_for(const std::string& tenant) const;

  /// Traces one placement pass as a zero-length "sched" span
  /// (no-op while tracing is disabled).
  void trace_pass(const PilotEntry& entry, std::size_t grants);

  [[nodiscard]] PilotEntry& entry_for(const std::string& pilot_uid);

  Runtime& runtime_;
  SchedulerPolicy policy_;
  LocalityOracle oracle_;
  std::map<std::string, PilotEntry> pilots_;
  std::map<std::string, double> tenant_weights_;
  /// Cumulative weighted dominant share per tenant. Written by grant;
  /// read by backfill at the start of a pass.
  std::map<std::string, double> tenant_shares_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t grant_hash_ = common::kFnvOffsetBasis;
  common::Summary wait_times_;
  common::Logger log_;
};

}  // namespace ripple::core
