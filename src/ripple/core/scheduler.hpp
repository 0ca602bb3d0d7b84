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
/// queue with a uid index and per-shape buckets) making submit/cancel
/// O(log waiting). Grant order is identical to a linear first-fit
/// rescan of the old deque-based scheduler; only the cost changes.
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
/// Placement is *sharded* on the batch paths: submit_batch and
/// release_batch partition the touched pilots into shard groups over a
/// common::ShardExecutor (set_shard_executor; null — the default —
/// runs the identical code inline). Each shard runs ordinary placement
/// passes over its own pilots — a pilot's WaitQueue, CapacityIndex and
/// nodes are touched by exactly one shard — and buffers candidate
/// grants instead of committing them. The buffers are then merged in
/// logical (enqueue time, request sequence, shard) order and committed
/// on the calling thread: wait-time stats, the grant counter, the
/// rolling grant-order FNV fingerprint (grant_log_hash) and the
/// granted-callback posts all happen in that merged order. Request
/// sequences are globally unique, so the committed order is a pure
/// function of the per-pilot grant sets — independent of shard count
/// or thread timing; a shards=N run is bit-identical to shards=1, the
/// oracle the sharded suites and bench/ablation_shards assert. With an
/// executor attached the locality oracle must tolerate concurrent
/// const calls (the catalog residency lookup does).
///
/// The single-pilot paths (submit, submit_all, release, cancel) never
/// touch the executor.
///
/// Weighted fair-share (multi-tenant arbitration). Opt-in via
/// set_tenant_weight; fifo ignores it (strict order is the point of
/// fifo). DRF-style: a request's cost is its dominant resource fraction
/// of the pilot (max of cores/total, gpus/total, mem/total) divided by
/// the tenant's weight, accumulated against the tenant as grants
/// *commit*. A pass reads the shares at its start and only commit_grant
/// writes them — serially, in merged (time, sequence, shard) order — so
/// the grant order is a pure function of committed history:
/// bit-identical across reruns and shard counts, and race-free under
/// the executor (passes only read). The wait queue's keys are never
/// touched, so clearing the weights restores the native order exactly.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/shard_executor.hpp"
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
  explicit Scheduler(Runtime& runtime,
                     SchedulerPolicy policy = SchedulerPolicy::backfill);

  /// Switching policy mid-run forces a full queue rescan on the next
  /// submit (the fast path's invariants are policy-specific).
  void set_policy(SchedulerPolicy policy) noexcept;
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

  /// Enqueues a request against a pilot's resources. Throws capacity
  /// when the request can never fit on any node of the pilot.
  void submit(const std::string& pilot_uid, ScheduleRequest request);

  /// Enqueues a batch, then runs one placement pass over the whole
  /// queue. Unlike N submit() calls, priorities are enacted across the
  /// entire batch before any placement, and the pilot's queue is
  /// re-scanned once instead of N times. Returns the number granted
  /// during the pass.
  std::size_t submit_all(const std::string& pilot_uid,
                         std::vector<ScheduleRequest> requests);

  /// Attaches the shard executor the batch paths run their placement
  /// passes on (null — the default — keeps them inline). See the file
  /// comment for the sharding/merge contract.
  void set_shard_executor(common::ShardExecutor* executor) noexcept {
    executor_ = executor;
  }

  /// One pilot's slice of a cross-pilot batch submission.
  struct PilotBatch {
    std::string pilot_uid;
    std::vector<ScheduleRequest> requests;
  };

  /// Enqueues requests against many pilots, then runs the per-pilot
  /// placement passes sharded across the executor and commits the
  /// merged grants deterministically (see file comment). Returns the
  /// number granted.
  std::size_t submit_batch(std::vector<PilotBatch> batches);

  /// Releases granted slots across many pilots, then re-runs the
  /// per-pilot placement passes the same sharded way. Returns the
  /// number granted by the re-placement.
  std::size_t release_batch(
      const std::vector<std::pair<std::string, platform::Slot>>& slots);

  /// Rolling FNV-1a fingerprint of the committed grant order (request
  /// uid, node id, slot shape — in commit order). The parallel==serial
  /// determinism oracle: a shards=N batch run must produce the same
  /// fingerprint as shards=1 under the same seed.
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
  /// request was already granted or is unknown.
  bool cancel(const std::string& pilot_uid, const std::string& request_uid);

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
    /// Set when the fast-path invariant broke (fifo head cancelled,
    /// policy switched); the next submit rescans the whole queue.
    bool needs_full_scan = false;
  };

  /// A grant computed by a placement pass but not yet committed: the
  /// pilot-local state (node capacity, wait queue) is already updated;
  /// the globally ordered effects (stats, hash, callback post) happen
  /// at commit, in merge-key order.
  struct PendingGrant {
    common::MergeKey key;  ///< (enqueued_at, request sequence, shard)
    double enqueued_at = 0.0;
    std::string uid;
    std::string tenant;
    double share_cost = 0.0;  ///< weighted dominant fraction of the grant
    platform::Slot slot;
    platform::Node* node = nullptr;
    std::function<void(platform::Slot, platform::Node*)> callback;
  };
  using GrantSink = std::vector<PendingGrant>;

  void validate_fits_pilot(const PilotEntry& entry,
                           const ScheduleRequest& request) const;
  WaitQueue::Key enqueue(PilotEntry& entry, ScheduleRequest request);

  /// Allocates on `node` and removes the entry. With a null sink the
  /// grant commits immediately (stats, hash, callback post — the
  /// single-pilot paths); otherwise it is buffered for the batch paths'
  /// deterministic merge commit.
  void grant(PilotEntry& entry, WaitQueue::iterator position,
             platform::Node& node, GrantSink* sink = nullptr);

  /// Commits one grant: wait-time stats, grant counter, rolling FNV
  /// fingerprint, per-tenant share/counter update, callback post —
  /// always on the loop thread, in merged order on the batch paths
  /// (the only place tenant_shares_ is written).
  void commit_grant(double enqueued_at, const std::string& uid,
                    const std::string& tenant, double share_cost,
                    platform::Slot slot, platform::Node* node,
                    std::function<void(platform::Slot, platform::Node*)>
                        callback);

  /// Full placement pass; returns grants made. Every entry still queued
  /// afterwards does not fit the current capacity (backfill) or sits
  /// behind a blocked head (fifo) — the invariant the submit fast path
  /// relies on.
  std::size_t try_schedule(PilotEntry& entry, GrantSink* sink = nullptr);

  /// The backfill pass (see file comment): merges the wait queue's
  /// bucket heads on the composite key, probes one head at a time and
  /// drops a bucket at its first miss.
  std::size_t backfill(PilotEntry& entry, GrantSink* sink);

  /// DRF dominant resource fraction of `request` on this pilot.
  [[nodiscard]] double dominant_fraction(const PilotEntry& entry,
                                         const ScheduleRequest& request) const;
  [[nodiscard]] double weight_for(const std::string& tenant) const;

  /// Traces one inline placement pass as a zero-length "sched" span
  /// (no-op while tracing is disabled).
  void trace_pass(const PilotEntry& entry, std::size_t grants);

  /// Post-submit fast path: only the entry at `key` can possibly be
  /// granted (all others were unplaceable at unchanged capacity).
  void try_place_new(PilotEntry& entry, WaitQueue::Key key);

  /// Runs placement passes over `touched` pilots — round-robin across
  /// the executor's shards when one is attached, inline otherwise —
  /// then merges and commits the buffered grants in (time, sequence,
  /// shard) order. Returns the number committed.
  std::size_t run_sharded_passes(const std::vector<PilotEntry*>& touched);

  /// Merges per-shard grant buffers in MergeKey order and commits each
  /// grant serially on the calling thread. Returns the number committed.
  std::size_t commit_merged(std::vector<GrantSink> buffers);

  [[nodiscard]] PilotEntry& entry_for(const std::string& pilot_uid);

  Runtime& runtime_;
  SchedulerPolicy policy_;
  LocalityOracle oracle_;
  common::ShardExecutor* executor_ = nullptr;
  std::map<std::string, PilotEntry> pilots_;
  std::map<std::string, double> tenant_weights_;
  /// Cumulative weighted dominant share per tenant. Written only by
  /// commit_grant (loop thread, merged order); read by the sharded
  /// passes as a start-of-pass snapshot.
  std::map<std::string, double> tenant_shares_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t grant_hash_ = common::kFnvOffsetBasis;
  common::Summary wait_times_;
  common::Logger log_;
};

}  // namespace ripple::core
