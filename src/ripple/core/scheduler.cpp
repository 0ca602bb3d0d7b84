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

Scheduler::Ticket Scheduler::enqueue(PilotEntry& entry,
                                     ScheduleRequest request) {
  const Ticket ticket{request.priority, next_sequence_++};
  entry.waiting.push(
      ticket, WaitQueue::Entry{std::move(request), runtime_.loop().now()});
  return ticket;
}

Scheduler::Ticket Scheduler::submit(const std::string& pilot_uid,
                                    ScheduleRequest request) {
  PilotEntry& entry = entry_for(pilot_uid);
  validate_fits_pilot(entry, request);
  const Ticket ticket = enqueue(entry, std::move(request));
  try_schedule(entry);
  return ticket;
}

std::vector<Scheduler::Ticket> Scheduler::submit_all(
    const std::string& pilot_uid, std::vector<ScheduleRequest> requests) {
  PilotEntry& entry = entry_for(pilot_uid);
  for (const ScheduleRequest& request : requests) {
    validate_fits_pilot(entry, request);
  }
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (ScheduleRequest& request : requests) {
    tickets.push_back(enqueue(entry, std::move(request)));
  }
  trace_pass(entry, try_schedule(entry));
  return tickets;
}

bool Scheduler::cancel(const std::string& pilot_uid, const Ticket& ticket) {
  // Matching the legacy scheduler, cancel does not re-run placement,
  // even when it removes a blocking fifo head: the next submit or
  // release places whatever the removal unblocked.
  return entry_for(pilot_uid).waiting.erase(ticket);
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
                      platform::Node& node) {
  ScheduleRequest& request = position->second.request;
  platform::Slot slot =
      node.allocate(request.cores, request.gpus, request.mem_gb);
  wait_times_.add(runtime_.loop().now() - position->second.enqueued_at);
  ++granted_;
  runtime_.counters().add("sched.grants");
  if (!request.tenant.empty()) {
    // Name the per-tenant counter only when it will be kept.
    if (runtime_.counters().enabled()) {
      runtime_.counters().add(strutil::cat("sched.grants.", request.tenant));
    }
    // The share cost is fixed against the pilot the grant landed on.
    if (!tenant_weights_.empty()) {
      const double share_cost =
          dominant_fraction(entry, request) / weight_for(request.tenant);
      if (share_cost > 0.0) tenant_shares_[request.tenant] += share_cost;
    }
  }
  grant_hash_ = common::fnv1a(grant_hash_, request.uid);
  grant_hash_ = common::fnv1a(grant_hash_, node.id());
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.cores));
  grant_hash_ = common::fnv1a(grant_hash_,
                              static_cast<std::uint64_t>(slot.gpus));
  runtime_.loop().post([callback = std::move(request.granted),
                        slot = std::move(slot),
                        placed = &node] { callback(slot, placed); });
  entry.waiting.erase(position);
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

std::size_t Scheduler::try_schedule(PilotEntry& entry) {
  std::size_t grants = 0;
  if (policy_ == SchedulerPolicy::backfill) {
    grants = backfill(entry);
  } else {
    // fifo: grant queue heads until one does not fit.
    while (!entry.waiting.empty()) {
      const auto head = entry.waiting.begin();
      const ScheduleRequest& request = head->second.request;
      platform::Node* node =
          entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
      if (node == nullptr) break;
      grant(entry, head, *node);
      ++grants;
    }
  }
  return grants;
}

std::size_t Scheduler::backfill(PilotEntry& entry) {
  // Composite key: (priority desc, tenant share asc, non-resident asc,
  // sequence asc). A component that is off is constant: the share
  // without fair share, residency without the oracle or under fair
  // share. Shares are read once, at pass start, so the grants the pass
  // makes do not reorder it.
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
  // The pass runs on every submit: size its buffers once per pass.
  std::vector<Run> runs;
  runs.reserve(entry.waiting.buckets().size());
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
  std::vector<Head> initial;
  initial.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].next < runs[r].end) initial.push_back({head_of(runs[r]), r});
  }
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(
      later, std::move(initial));

  std::size_t grants = 0;
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    const ScheduleRequest& request = head.position->second.request;
    platform::Node* node =
        entry.index.first_fit(request.cores, request.gpus, request.mem_gb);
    // Capacity only shrinks within a pass, so the rest of the run (same
    // shape) cannot fit either: drop it.
    if (node == nullptr) continue;
    grant(entry, head.position, *node);
    ++grants;
    // Members left means a whole-bucket run's bucket still exists.
    Run& run = runs[head.run];
    if (++run.next < run.end) heads.push({head_of(run), head.run});
  }
  return grants;
}

std::size_t Scheduler::queue_length(const std::string& pilot_uid) const {
  const auto it = pilots_.find(pilot_uid);
  return it == pilots_.end() ? 0 : it->second.waiting.size();
}

}  // namespace ripple::core
