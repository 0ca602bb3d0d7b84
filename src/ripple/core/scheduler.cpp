#include "ripple/core/scheduler.hpp"

#include <algorithm>
#include <queue>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::core {

Scheduler::Scheduler(Runtime& runtime, SchedulerPolicy policy)
    : runtime_(runtime),
      policy_(policy),
      log_(runtime.make_logger("scheduler")) {}

void Scheduler::set_policy(SchedulerPolicy policy) noexcept {
  if (policy == policy_) return;
  policy_ = policy;
  // Queued entries were filtered under the old policy's invariants; the
  // next submit must rescan the whole queue, not just the new entry.
  for (auto& [uid, entry] : pilots_) entry.needs_full_scan = true;
}

void Scheduler::add_pilot(Pilot& pilot) {
  ensure(pilots_.count(pilot.uid()) == 0, Errc::invalid_state, "pilot ",
         pilot.uid(), " already registered");
  PilotEntry& entry = pilots_[pilot.uid()];
  try {
    entry.pilot = &pilot;
    entry.index.attach(pilot.nodes());
    for (const platform::Node* node : pilot.nodes()) {
      const platform::NodeSpec& spec = node->spec();
      entry.total_cores += spec.cores;
      entry.total_gpus += spec.gpus;
      entry.total_mem += spec.mem_gb;
      const bool seen = std::any_of(
          entry.distinct_specs.begin(), entry.distinct_specs.end(),
          [&](const platform::NodeSpec& s) {
            return s.cores == spec.cores && s.gpus == spec.gpus &&
                   s.mem_gb == spec.mem_gb;
          });
      if (!seen) entry.distinct_specs.push_back(spec);
    }
  } catch (...) {
    // Don't leave a half-registered pilot behind (e.g. a node already
    // indexed by another pilot).
    pilots_.erase(pilot.uid());
    throw;
  }
}

void Scheduler::remove_pilot(const std::string& pilot_uid) {
  pilots_.erase(pilot_uid);
}

std::size_t Scheduler::reschedule(const std::string& pilot_uid) {
  PilotEntry& entry = entry_for(pilot_uid);
  const std::size_t grants = try_schedule(entry);
  trace_pass(entry, grants);
  return grants;
}

std::size_t Scheduler::waiting_total() const {
  std::size_t total = 0;
  for (const auto& [uid, entry] : pilots_) total += entry.waiting.size();
  return total;
}

void Scheduler::trace_pass(const PilotEntry& entry, std::size_t grants) {
  auto& tracer = runtime_.tracer();
  if (!tracer.enabled()) return;
  const double now = runtime_.loop().now();
  tracer.instant("place", "sched", entry.pilot->uid(), now, 0,
                 {{"grants", strutil::cat(grants)},
                  {"queued", strutil::cat(entry.waiting.size())}});
}

Scheduler::PilotEntry& Scheduler::entry_for(const std::string& pilot_uid) {
  const auto it = pilots_.find(pilot_uid);
  ensure(it != pilots_.end(), Errc::not_found, "unknown pilot '", pilot_uid,
         "'");
  return it->second;
}

namespace {

/// True when some node shape covers the request in every dimension.
bool specs_cover(const std::vector<platform::NodeSpec>& specs,
                 std::size_t cores, std::size_t gpus, double mem_gb) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const platform::NodeSpec& spec) {
                       return cores <= spec.cores && gpus <= spec.gpus &&
                              mem_gb <= spec.mem_gb;
                     });
}

}  // namespace

bool Scheduler::fits_pilot(const std::string& pilot_uid, std::size_t cores,
                           std::size_t gpus, double mem_gb) const {
  const auto it = pilots_.find(pilot_uid);
  ensure(it != pilots_.end(), Errc::not_found, "unknown pilot '", pilot_uid,
         "'");
  return specs_cover(it->second.distinct_specs, cores, gpus, mem_gb);
}

void Scheduler::validate_fits_pilot(const PilotEntry& entry,
                                    const ScheduleRequest& request) const {
  ensure(static_cast<bool>(request.granted), Errc::invalid_argument,
         "schedule request needs a granted callback");
  // Reject requests that exceed every node shape outright. Pilots are
  // typically homogeneous, so this is one comparison.
  const bool fits = specs_cover(entry.distinct_specs, request.cores,
                                request.gpus, request.mem_gb);
  ensure(fits, Errc::capacity, "request ", request.uid, " (", request.cores,
         "c/", request.gpus, "g) cannot fit any node of pilot ",
         entry.pilot->uid());
}

WaitQueue::Key Scheduler::enqueue(PilotEntry& entry,
                                  ScheduleRequest request) {
  const WaitQueue::Key key{request.priority, next_sequence_++};
  entry.waiting.push(
      key, WaitQueue::Entry{std::move(request), runtime_.loop().now()});
  return key;
}

void Scheduler::submit(const std::string& pilot_uid,
                       ScheduleRequest request) {
  PilotEntry& entry = entry_for(pilot_uid);
  validate_fits_pilot(entry, request);
  const WaitQueue::Key key = enqueue(entry, std::move(request));
  if (entry.needs_full_scan) {
    try_schedule(entry);
  } else {
    try_place_new(entry, key);
  }
}

std::size_t Scheduler::submit_all(const std::string& pilot_uid,
                                  std::vector<ScheduleRequest> requests) {
  PilotEntry& entry = entry_for(pilot_uid);
  for (const ScheduleRequest& request : requests) {
    validate_fits_pilot(entry, request);
  }
  try {
    for (ScheduleRequest& request : requests) {
      enqueue(entry, std::move(request));
    }
  } catch (...) {
    // A duplicate uid mid-batch must not strand the already-enqueued
    // requests without a placement pass (the submit fast path would
    // never look at them again).
    try_schedule(entry);
    throw;
  }
  const std::size_t grants = try_schedule(entry);
  trace_pass(entry, grants);
  return grants;
}

bool Scheduler::cancel(const std::string& pilot_uid,
                       const std::string& request_uid) {
  PilotEntry& entry = entry_for(pilot_uid);
  const bool was_head = !entry.waiting.empty() &&
                        entry.waiting.begin()->second.request.uid ==
                            request_uid;
  if (!entry.waiting.erase_uid(request_uid)) return false;
  // A fifo queue head may have been the only thing blocking placeable
  // successors. Matching the legacy scheduler, cancel itself does not
  // re-run placement (grant order stays bit-identical); the flag makes
  // the next submit rescan the whole queue instead of fast-pathing.
  if (was_head && policy_ == SchedulerPolicy::fifo) {
    entry.needs_full_scan = true;
  }
  return true;
}

void Scheduler::release(const std::string& pilot_uid,
                        const platform::Slot& slot) {
  PilotEntry& entry = entry_for(pilot_uid);
  platform::Node* node = entry.pilot->cluster().find_node(slot.node_id);
  ensure(node != nullptr, Errc::not_found, "release on unknown node '",
         slot.node_id, "'");
  node->release(slot);  // capacity index updates via the listener
  try_schedule(entry);
}

void Scheduler::grant(PilotEntry& entry, WaitQueue::iterator position,
                      platform::Node& node, GrantSink* sink) {
  ScheduleRequest& request = position->second.request;
  platform::Slot slot =
      node.allocate(request.cores, request.gpus, request.mem_gb);
  // The grant's share cost is fixed here, against the pilot it landed
  // on; it is charged to the tenant at commit time, in merged order.
  double share_cost = 0.0;
  if (!tenant_weights_.empty() && !request.tenant.empty()) {
    share_cost =
        dominant_fraction(entry, request) / weight_for(request.tenant);
  }
  if (sink != nullptr) {
    // Sharded pass: only pilot-local state may change here. The shard
    // field of the key is stamped by run_sharded_passes; sequence is
    // the request's globally unique wait-queue sequence, so the merged
    // commit order is invariant under the shard count.
    PendingGrant pending;
    pending.key = common::MergeKey{position->second.enqueued_at,
                                   position->first.sequence, 0};
    pending.enqueued_at = position->second.enqueued_at;
    pending.uid = request.uid;
    pending.tenant = request.tenant;
    pending.share_cost = share_cost;
    pending.slot = std::move(slot);
    pending.node = &node;
    pending.callback = std::move(request.granted);
    sink->push_back(std::move(pending));
    entry.waiting.erase(position);
    return;
  }
  const double enqueued_at = position->second.enqueued_at;
  std::string uid = request.uid;
  std::string tenant = request.tenant;
  auto callback = std::move(request.granted);
  entry.waiting.erase(position);
  commit_grant(enqueued_at, uid, tenant, share_cost, std::move(slot), &node,
               std::move(callback));
}

void Scheduler::commit_grant(
    double enqueued_at, const std::string& uid, const std::string& tenant,
    double share_cost, platform::Slot slot, platform::Node* node,
    std::function<void(platform::Slot, platform::Node*)> callback) {
  wait_times_.add(runtime_.loop().now() - enqueued_at);
  ++granted_;
  runtime_.counters().add("sched.grants");
  if (!tenant.empty()) {
    runtime_.counters().add(strutil::cat("sched.grants.", tenant));
    if (share_cost > 0.0) tenant_shares_[tenant] += share_cost;
  }
  grant_hash_ = common::fnv1a(grant_hash_, uid);
  grant_hash_ = common::fnv1a(grant_hash_, node->id());
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.cores));
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.gpus));
  runtime_.loop().post([callback = std::move(callback),
                        slot = std::move(slot),
                        placed = node] { callback(slot, placed); });
}

void Scheduler::set_locality_oracle(LocalityOracle oracle) {
  oracle_ = std::move(oracle);
}

void Scheduler::set_tenant_weight(const std::string& tenant, double weight) {
  ensure(!tenant.empty(), Errc::invalid_argument,
         "fair-share weight needs a tenant");
  ensure(weight > 0.0, Errc::invalid_argument,
         "fair-share weight must be > 0");
  tenant_weights_[tenant] = weight;
  // The scan order just changed; the submit fast path's only-the-new-
  // entry-can-fit invariant still holds, but a full rescan keeps the
  // first fair pass from inheriting a stale filtered queue.
  for (auto& [uid, entry] : pilots_) entry.needs_full_scan = true;
}

double Scheduler::tenant_share(const std::string& tenant) const {
  const auto it = tenant_shares_.find(tenant);
  return it == tenant_shares_.end() ? 0.0 : it->second;
}

double Scheduler::weight_for(const std::string& tenant) const {
  const auto it = tenant_weights_.find(tenant);
  return it == tenant_weights_.end() ? 1.0 : it->second;
}

double Scheduler::dominant_fraction(const PilotEntry& entry,
                                    const ScheduleRequest& request) const {
  double fraction =
      entry.total_cores > 0
          ? static_cast<double>(request.cores) /
                static_cast<double>(entry.total_cores)
          : 0.0;
  if (request.gpus > 0 && entry.total_gpus > 0) {
    fraction = std::max(fraction,
                        static_cast<double>(request.gpus) /
                            static_cast<double>(entry.total_gpus));
  }
  if (request.mem_gb > 0.0 && entry.total_mem > 0.0) {
    fraction = std::max(fraction, request.mem_gb / entry.total_mem);
  }
  return fraction;
}

std::size_t Scheduler::try_schedule(PilotEntry& entry, GrantSink* sink) {
  std::size_t grants = 0;
  if (policy_ == SchedulerPolicy::backfill) {
    grants = backfill(entry, sink);
  } else {
    // fifo: grant queue heads until one does not fit.
    while (!entry.waiting.empty()) {
      const auto head = entry.waiting.begin();
      const ScheduleRequest& request = head->second.request;
      platform::Node* node =
          entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
      if (node == nullptr) break;
      grant(entry, head, *node, sink);
      ++grants;
    }
  }
  entry.needs_full_scan = false;
  return grants;
}

std::size_t Scheduler::backfill(PilotEntry& entry, GrantSink* sink) {
  // Composite key: (priority desc, tenant share asc, non-resident asc,
  // sequence asc). A component that is off is constant: the share
  // without fair share, residency without the oracle or under fair
  // share. Shares are read at pass start (commit_grant, their only
  // writer, runs after the pass on the batch paths), so the order is a
  // pure function of committed history and the reads race with nothing
  // under the executor.
  const bool fair = fair_share();
  const bool locality = oracle_ && !fair;
  const std::string zone = locality ? entry.pilot->cluster().name() : "";

  // A run is consumed from the front in key order: a whole bucket,
  // whose head is always its first member, or one residency half
  // split[next, end) of an input-declaring bucket under the oracle.
  struct Run {
    const WaitQueue::Bucket* bucket = nullptr;
    std::size_t next = 0;
    std::size_t end = 0;
    double share = 0.0;
    bool non_resident = false;
  };
  std::vector<Run> runs;
  std::vector<WaitQueue::iterator> split;
  std::vector<WaitQueue::iterator> cold;
  for (const auto& [shape, members] : entry.waiting.buckets()) {
    double share = 0.0;
    if (fair) {
      const auto it = tenant_shares_.find(shape.tenant);
      if (it != tenant_shares_.end()) share = it->second;
    }
    if (!locality || !shape.declares_inputs) {
      runs.push_back({&members, 0, members.size(), share, false});
      continue;
    }
    // One live oracle call per member; the catalog cannot change
    // mid-pass because grants are posted, never run synchronously.
    const std::size_t first = split.size();
    for (const WaitQueue::iterator position : members) {
      const auto& inputs = position->second.request.input_datasets;
      (oracle_(inputs, zone) > 0.0 ? cold : split).push_back(position);
    }
    const std::size_t middle = split.size();
    split.insert(split.end(), cold.begin(), cold.end());
    cold.clear();
    runs.push_back({nullptr, first, middle, share, false});
    runs.push_back({nullptr, middle, split.size(), share, true});
  }
  const auto head_of = [&split](const Run& run) {
    return run.bucket != nullptr ? *run.bucket->begin() : split[run.next];
  };

  // Min-heap of run heads on the composite key.
  struct Head {
    WaitQueue::iterator position;
    std::size_t run = 0;
  };
  const auto later = [&runs](const Head& a, const Head& b) {
    const WaitQueue::Key& x = a.position->first;
    const WaitQueue::Key& y = b.position->first;
    if (x.priority != y.priority) return x.priority < y.priority;
    const Run& ra = runs[a.run];
    const Run& rb = runs[b.run];
    if (ra.share != rb.share) return ra.share > rb.share;
    if (ra.non_resident != rb.non_resident) return ra.non_resident;
    return x.sequence > y.sequence;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].next < runs[r].end) heads.push({head_of(runs[r]), r});
  }

  std::size_t grants = 0;
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    const ScheduleRequest& request = head.position->second.request;
    platform::Node* node =
        entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
    // Capacity only shrinks within a pass, so the rest of the run (same
    // shape) cannot fit either: drop it. What stays queued is therefore
    // unplaceable — the invariant the submit fast path relies on.
    if (node == nullptr) continue;
    grant(entry, head.position, *node, sink);
    ++grants;
    // Members left means a whole-bucket run's bucket still exists.
    Run& run = runs[head.run];
    if (++run.next < run.end) heads.push({head_of(run), head.run});
  }
  return grants;
}

std::size_t Scheduler::run_sharded_passes(
    const std::vector<PilotEntry*>& touched) {
  if (touched.empty()) return 0;
  const std::size_t nshards =
      (executor_ != nullptr && executor_->shards() > 1)
          ? std::min<std::size_t>(executor_->shards(), touched.size())
          : 1;
  // Round-robin pilots over shards: shard s owns pilots s, s+nshards, …
  // Each pilot's wait queue, capacity index and nodes belong to exactly
  // one shard (a node has one exclusive capacity listener), so the
  // passes share no mutable state. Grants are buffered, not committed.
  std::vector<GrantSink> buffers(nshards);
  // Per-shard trace lanes: lane records carry (pass time, pilot index)
  // merge keys, so the committed span order is invariant under the
  // shard count — same protocol as the grants themselves.
  auto& tracer = runtime_.tracer();
  const bool traced = tracer.enabled();
  const double pass_time = runtime_.loop().now();
  if (traced) tracer.begin_lanes(nshards);
  const auto pass = [&](std::size_t shard) {
    GrantSink& sink = buffers[shard];
    for (std::size_t p = shard; p < touched.size(); p += nshards) {
      const std::size_t grants = try_schedule(*touched[p], &sink);
      if (traced) {
        tracer.lane_complete(
            shard,
            common::MergeKey{pass_time, p, static_cast<std::uint32_t>(shard)},
            "place", "sched", touched[p]->pilot->uid(), pass_time, pass_time,
            {{"grants", strutil::cat(grants)},
             {"queued", strutil::cat(touched[p]->waiting.size())}});
      }
    }
    for (PendingGrant& pending : sink) {
      pending.key.shard = static_cast<std::uint32_t>(shard);
    }
  };
  if (nshards == 1) {
    pass(0);
  } else {
    executor_->run(nshards, pass);
  }
  if (traced) tracer.commit_lanes();
  return commit_merged(std::move(buffers));
}

std::size_t Scheduler::commit_merged(std::vector<GrantSink> buffers) {
  // Merge in (enqueue time, request sequence, shard) order and commit
  // serially. Sequences are globally unique, so this order is a pure
  // function of the grant records — bit-identical for any shard count.
  std::vector<PendingGrant> merged = common::merge_shards(
      std::move(buffers),
      [](const PendingGrant& pending) { return pending.key; });
  for (PendingGrant& pending : merged) {
    commit_grant(pending.enqueued_at, pending.uid, pending.tenant,
                 pending.share_cost, std::move(pending.slot), pending.node,
                 std::move(pending.callback));
  }
  return merged.size();
}

std::size_t Scheduler::submit_batch(std::vector<PilotBatch> batches) {
  // Validate everything first so a bad request leaves no partial state.
  for (const PilotBatch& batch : batches) {
    const PilotEntry& entry = entry_for(batch.pilot_uid);
    for (const ScheduleRequest& request : batch.requests) {
      validate_fits_pilot(entry, request);
    }
  }
  std::vector<PilotEntry*> touched;
  const auto touch = [&](PilotEntry& entry) {
    if (std::find(touched.begin(), touched.end(), &entry) == touched.end()) {
      touched.push_back(&entry);
    }
  };
  try {
    // Enqueue in input order on the calling thread: sequence assignment
    // is identical to per-pilot submit_all calls in the same order.
    for (PilotBatch& batch : batches) {
      PilotEntry& entry = entry_for(batch.pilot_uid);
      touch(entry);
      for (ScheduleRequest& request : batch.requests) {
        enqueue(entry, std::move(request));
      }
    }
  } catch (...) {
    // Same strand protection as submit_all: a duplicate uid mid-batch
    // must not leave enqueued requests without a placement pass.
    run_sharded_passes(touched);
    throw;
  }
  return run_sharded_passes(touched);
}

std::size_t Scheduler::release_batch(
    const std::vector<std::pair<std::string, platform::Slot>>& slots) {
  // Group slots per pilot in first-occurrence order so each shard can
  // release its pilots' capacity before re-running their passes.
  std::vector<std::pair<PilotEntry*, std::vector<const platform::Slot*>>>
      grouped;
  for (const auto& [pilot_uid, slot] : slots) {
    PilotEntry& entry = entry_for(pilot_uid);
    auto it = std::find_if(grouped.begin(), grouped.end(),
                           [&](const auto& g) { return g.first == &entry; });
    if (it == grouped.end()) {
      grouped.emplace_back(&entry, std::vector<const platform::Slot*>{});
      it = std::prev(grouped.end());
    }
    // Resolve the node up front (loop-thread, may throw not_found).
    platform::Node* node =
        entry.pilot->cluster().find_node(slot.node_id);
    ensure(node != nullptr, Errc::not_found, "release on unknown node '",
           slot.node_id, "'");
    it->second.push_back(&slot);
  }
  if (grouped.empty()) return 0;
  const std::size_t nshards =
      (executor_ != nullptr && executor_->shards() > 1)
          ? std::min<std::size_t>(executor_->shards(), grouped.size())
          : 1;
  std::vector<GrantSink> buffers(nshards);
  auto& tracer = runtime_.tracer();
  const bool traced = tracer.enabled();
  const double pass_time = runtime_.loop().now();
  if (traced) tracer.begin_lanes(nshards);
  const auto pass = [&](std::size_t shard) {
    GrantSink& sink = buffers[shard];
    for (std::size_t g = shard; g < grouped.size(); g += nshards) {
      PilotEntry& entry = *grouped[g].first;
      for (const platform::Slot* slot : grouped[g].second) {
        platform::Node* node =
            entry.pilot->cluster().find_node(slot->node_id);
        node->release(*slot);  // index updates via the listener
      }
      const std::size_t grants = try_schedule(entry, &sink);
      if (traced) {
        tracer.lane_complete(
            shard,
            common::MergeKey{pass_time, g, static_cast<std::uint32_t>(shard)},
            "backfill", "sched", entry.pilot->uid(), pass_time, pass_time,
            {{"released", strutil::cat(grouped[g].second.size())},
             {"grants", strutil::cat(grants)}});
      }
    }
    for (PendingGrant& pending : sink) {
      pending.key.shard = static_cast<std::uint32_t>(shard);
    }
  };
  if (nshards == 1) {
    pass(0);
  } else {
    executor_->run(nshards, pass);
  }
  if (traced) tracer.commit_lanes();
  return commit_merged(std::move(buffers));
}

void Scheduler::try_place_new(PilotEntry& entry, WaitQueue::Key key) {
  // Everything already queued was unplaceable at unchanged capacity
  // (try_schedule invariant), so only the new entry can be granted —
  // and under fifo only when it is the queue head.
  auto position = entry.waiting.begin();
  if (policy_ == SchedulerPolicy::fifo) {
    if (position->first.priority != key.priority ||
        position->first.sequence != key.sequence) {
      return;
    }
  } else {
    position = entry.waiting.find(key);
    ensure(position != entry.waiting.end(), Errc::internal,
           "submitted request vanished from wait queue");
  }
  const ScheduleRequest& request = position->second.request;
  platform::Node* node =
      entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
  if (node != nullptr) grant(entry, position, *node);
}

std::size_t Scheduler::queue_length(const std::string& pilot_uid) const {
  const auto it = pilots_.find(pilot_uid);
  return it == pilots_.end() ? 0 : it->second.waiting.size();
}

}  // namespace ripple::core
