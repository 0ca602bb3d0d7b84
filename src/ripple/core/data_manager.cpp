#include "ripple/core/data_manager.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/data/placement_advisor.hpp"

namespace ripple::core {

DataManager::DataManager(Runtime& runtime)
    : runtime_(runtime),
      engine_(runtime.loop(), runtime.rng().fork("data_manager")) {
  engine_.set_network(&runtime.network());
  engine_.set_trace(&runtime.tracer(), &runtime.counters());
}

void DataManager::register_dataset(const std::string& name, double bytes,
                                   const std::string& zone,
                                   const std::string& content_id) {
  catalog_.register_dataset(name, bytes, zone, content_id);
}

bool DataManager::has(const std::string& name) const {
  return catalog_.has(name);
}

const Dataset& DataManager::dataset(const std::string& name) const {
  return catalog_.dataset(name);
}

bool DataManager::available_in(const std::string& name,
                               const std::string& zone) const {
  return catalog_.available_in(name, zone);
}

void DataManager::add_store(const std::string& zone, double capacity_bytes) {
  catalog_.add_store(zone, capacity_bytes);
}

void DataManager::set_setup_latency(common::Distribution dist) {
  engine_.set_setup_latency(dist);
}

void DataManager::set_bandwidth(const std::string& zone_a,
                                const std::string& zone_b,
                                double bytes_per_s) {
  engine_.set_bandwidth(zone_a, zone_b, bytes_per_s);
}

void DataManager::set_default_bandwidth(double bytes_per_s) {
  engine_.set_default_bandwidth(bytes_per_s);
}

double DataManager::bytes_required(const std::vector<std::string>& names,
                                   const std::string& zone) const {
  // One definition of the locality cost metric: the advisor's.
  return data::PlacementAdvisor(catalog_).bytes_to_move(names, zone);
}

DataManager::Flight& DataManager::launch_flight(
    const FlightKey& key, std::vector<std::string> sources, double bytes,
    bool prefetch, const std::string& tenant) {
  const std::string& name = key.first;
  const std::string& dst_zone = key.second;
  // Every source replica feeds a stripe of the transfer: pin them all
  // so store pressure in their zones cannot evict them mid-flight.
  for (const auto& src : sources) catalog_.pin(name, src, tenant);

  Flight flight;
  flight.src_zones = std::move(sources);
  flight.reserved_bytes = bytes;
  flight.prefetch = prefetch;
  flight.tenant = tenant;
  if (prefetch) {
    prefetch_inflight_[dst_zone] += bytes;
    ++prefetches_started_;
  }
  auto [it, inserted] = flights_.emplace(key, std::move(flight));
  it->second.transfer_id = engine_.transfer(
      name, it->second.src_zones, dst_zone, bytes,
      [this, key](bool ok, sim::Duration) { on_flight_done(key, ok); },
      tenant);
  return it->second;
}

DataManager::StageTicket DataManager::stage(std::vector<StageTarget> targets,
                                            StageCallback on_done,
                                            const std::string& tenant) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "stage: empty callback");
  if (targets.empty()) {
    runtime_.loop().post(
        [on_done = std::move(on_done)] { on_done(true, ""); });
    return 0;
  }
  const StageTicket ticket = next_ticket_++;
  Call& call = calls_[ticket];
  call.targets = std::move(targets);
  call.remaining = call.targets.size();
  call.on_done = std::move(on_done);
  // A target that resolves now still reports on a later loop turn, one
  // posted event per target, so a caller never sees its callback fire
  // inside stage() and may cancel the ticket until the event runs.
  for (std::size_t i = 0; i < call.targets.size(); ++i) {
    if (const auto now = admit(call.targets[i], tenant, {ticket, i})) {
      runtime_.loop().post(
          [this, ticket, i, ok = *now] { settle(ticket, i, ok); });
    }
  }
  return ticket;
}

std::optional<bool> DataManager::admit(const StageTarget& target,
                                       const std::string& tenant,
                                       Waiter waiter) {
  const auto& [name, dst_zone] = target;
  const Dataset* ds = catalog_.find(name);
  if (ds == nullptr) return false;
  if (ds->zones.count(dst_zone) != 0) {
    catalog_.touch(ds->name, dst_zone);
    return true;
  }

  // Flights key on the canonical (content-resolved) name: concurrent
  // stages of the same content under different tenant aliases coalesce
  // onto one transfer instead of each paying for the bytes.
  const FlightKey key{ds->name, dst_zone};
  const auto flight = flights_.find(key);
  if (flight != flights_.end()) {  // piggyback on the shared transfer
    flight->second.waiters.push_back(waiter);
    return std::nullopt;
  }

  // Eviction may have reclaimed every replica of an unprotected
  // dataset; that is a failed stage, not an internal error.
  if (ds->zones.empty()) return false;
  // Demand outranks speculation: when the store cannot take the
  // reservation, reclaim waiterless prefetch flights into this zone
  // (cancelling them frees their reservations) before giving up — but
  // only when the dataset could ever fit; a doomed oversized stage
  // must not wipe out useful speculative work on its way to failing.
  bool reserved = catalog_.reserve(dst_zone, ds->bytes, tenant);
  if (!reserved && ds->bytes <= catalog_.store(dst_zone).capacity) {
    while (!reserved && reclaim_one_prefetch(dst_zone)) {
      reserved = catalog_.reserve(dst_zone, ds->bytes, tenant);
    }
  }
  if (!reserved) return false;
  // Every replica contributes: a multi-zone dataset moves as one
  // striped transfer over the disjoint (src, dst) links.
  launch_flight(key, {ds->zones.begin(), ds->zones.end()}, ds->bytes,
                /*prefetch=*/false, tenant)
      .waiters.push_back(waiter);
  return std::nullopt;
}

std::size_t DataManager::prefetch(const std::vector<std::string>& names,
                                  const std::string& zone,
                                  const std::string& tenant) {
  std::size_t started = 0;
  for (const auto& name : names) {
    const Dataset* ds = catalog_.find(name);
    if (ds == nullptr || ds->zones.count(zone) != 0) continue;
    if (flights_.count({ds->name, zone}) != 0) continue;  // already inbound
    if (ds->zones.empty()) continue;
    // Budget: bytes already being prefetched into this store.
    const auto inflight = prefetch_inflight_.find(zone);
    const double pending =
        inflight == prefetch_inflight_.end() ? 0.0 : inflight->second;
    if (pending + ds->bytes > prefetch_budget_) continue;
    // Never evict for a prefetch: demand data outranks speculation.
    if (catalog_.store(zone).free() < ds->bytes) continue;
    // Idle links only — a prefetch must not steal fair-share bandwidth
    // from demand transfers already flowing.
    std::vector<std::string> idle_sources;
    for (const auto& src : ds->zones) {
      if (engine_.active_on(src, zone) == 0 &&
          engine_.queued_on(src, zone) == 0) {
        idle_sources.push_back(src);
      }
    }
    if (idle_sources.empty()) continue;
    if (!catalog_.reserve(zone, ds->bytes, tenant)) continue;
    launch_flight({ds->name, zone}, std::move(idle_sources), ds->bytes,
                  /*prefetch=*/true, tenant);
    ++started;
  }
  return started;
}

void DataManager::set_prefetch_budget(double bytes) {
  ensure(bytes >= 0.0, Errc::invalid_argument,
         "prefetch budget must be >= 0");
  prefetch_budget_ = bytes;
}

bool DataManager::reclaim_one_prefetch(const std::string& zone) {
  // First waiterless prefetch into `zone` in flight-key order
  // (deterministic). A prefetch a demand stage piggybacked on is no
  // longer speculation and is never reclaimed.
  for (auto it = flights_.begin(); it != flights_.end(); ++it) {
    if (it->first.second != zone) continue;
    if (!it->second.prefetch || !it->second.waiters.empty()) continue;
    drop_flight(it);
    return true;
  }
  return false;
}

bool DataManager::abandon_prefetch(const std::string& name,
                                   const std::string& zone) {
  const auto it = flights_.find({catalog_.canonical(name), zone});
  if (it == flights_.end()) return false;
  // Only speculation is revocable. A demand flight, or a prefetch a
  // demand stage piggybacked on, has callers counting on its callback.
  if (!it->second.prefetch || !it->second.waiters.empty()) return false;
  drop_flight(it);
  return true;
}

void DataManager::release_flight(const FlightKey& key, const Flight& flight) {
  for (const auto& src : flight.src_zones) {
    catalog_.unpin(key.first, src, flight.tenant);
  }
  if (flight.prefetch) {
    double& inflight = prefetch_inflight_[key.second];
    inflight -= flight.reserved_bytes;
    if (inflight < 0.0) inflight = 0.0;
  }
}

void DataManager::drop_flight(Flights::iterator it) {
  engine_.cancel(it->second.transfer_id);
  release_flight(it->first, it->second);
  catalog_.release_reservation(it->first.second, it->second.reserved_bytes,
                               it->second.tenant);
  flights_.erase(it);
}

void DataManager::on_flight_done(const FlightKey& key, bool ok) {
  const auto it = flights_.find(key);
  if (it == flights_.end()) return;
  const std::vector<Waiter> waiters = std::move(it->second.waiters);
  const double reserved = it->second.reserved_bytes;
  const std::string tenant = it->second.tenant;
  release_flight(key, it->second);
  if (ok && it->second.prefetch) ++prefetches_completed_;
  flights_.erase(it);
  if (ok) {
    catalog_.commit_replica(key.first, key.second, tenant);
  } else {
    catalog_.release_reservation(key.second, reserved, tenant);
  }
  for (const Waiter& waiter : waiters) {
    settle(waiter.ticket, waiter.target, ok);
  }
}

void DataManager::settle(StageTicket ticket, std::size_t target, bool ok) {
  const auto it = calls_.find(ticket);
  if (it == calls_.end()) return;
  if (ok && --it->second.remaining != 0) return;
  const Call call = std::move(it->second);
  calls_.erase(it);
  if (ok) {
    call.on_done(true, "");
    return;
  }
  withdraw(ticket, call.targets);
  call.on_done(false, call.targets[target].dataset);
}

void DataManager::withdraw(StageTicket ticket,
                           const std::vector<StageTarget>& targets) {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& [name, zone] = targets[i];
    const auto flight = flights_.find({catalog_.canonical(name), zone});
    if (flight == flights_.end()) continue;
    auto& waiters = flight->second.waiters;
    const auto waiter =
        std::find(waiters.begin(), waiters.end(), Waiter{ticket, i});
    if (waiter == waiters.end()) continue;  // resolved or settled already
    waiters.erase(waiter);
    // Last waiter gone: the transfer itself is no longer wanted; other
    // callers' waiters keep a shared one running. (A prefetch flight
    // keeps running waiterless — that is its job.)
    if (waiters.empty() && !flight->second.prefetch) drop_flight(flight);
  }
}

bool DataManager::cancel_stage(StageTicket ticket) {
  const auto it = calls_.find(ticket);
  if (it == calls_.end()) return false;
  const std::vector<StageTarget> targets = std::move(it->second.targets);
  calls_.erase(it);
  withdraw(ticket, targets);
  return true;
}

// ---------------------------------------------------------------------------
// Store-failure repair
// ---------------------------------------------------------------------------

void DataManager::record_repair(const std::string& event) {
  const std::string line = strutil::cat(
      strutil::format_fixed(runtime_.loop().now(), 6), " ", event);
  repair_log_.push_back(line);
  repair_hash_ = common::fnv1a(repair_hash_, line);
}

std::string DataManager::repair_target(const std::string& name) const {
  const Dataset& ds = catalog_.dataset(name);
  std::string best;
  double best_free = -1.0;
  for (const std::string& zone : catalog_.store_zones()) {
    if (ds.zones.count(zone) != 0) continue;
    const double free = catalog_.store(zone).free();
    if (free < ds.bytes) continue;
    if (free > best_free) {  // sorted iteration: ties keep the first
      best = zone;
      best_free = free;
    }
  }
  return best;
}

std::size_t DataManager::handle_store_failure(const std::string& zone) {
  // 1. Flights into the dead store first, while its reservation ledger
  // still exists: cancel the transfer, unpin the sources, return the
  // reservation, fail the waiters on the next loop turn (a waiter may
  // start new stages; those must observe the store already gone).
  std::vector<FlightKey> inbound;
  for (const auto& [key, flight] : flights_) {
    if (key.second == zone) inbound.push_back(key);
  }
  for (const FlightKey& key : inbound) {
    const auto it = flights_.find(key);
    if (it == flights_.end()) continue;
    const std::vector<Waiter> waiters = std::move(it->second.waiters);
    drop_flight(it);
    for (const Waiter& waiter : waiters) {
      runtime_.loop().post(
          [this, waiter] { settle(waiter.ticket, waiter.target, false); });
    }
  }

  // 2. Force-drop everything the store held.
  const std::vector<std::string> lost = catalog_.fail_store(zone);
  record_repair(strutil::cat("store_failed ", zone, " lost=", lost.size()));

  // 3. Re-replicate each lost dataset from its survivors — `lost` is
  // sorted and the target choice is a pure function of catalog state,
  // so the repair schedule is deterministic.
  std::size_t repairs = 0;
  for (const std::string& name : lost) {
    if (!catalog_.dataset(name).zones.empty()) {
      const std::string target = repair_target(name);
      if (target.empty()) {
        record_repair(strutil::cat("no_target ", name));
        continue;
      }
      record_repair(strutil::cat("repair ", name, " -> ", target));
      ++repairs_started_;
      ++repairs;
      stage({{name, target}}, [this, name, target](bool ok,
                                                   const std::string&) {
        if (ok) {
          ++repairs_completed_;
          record_repair(strutil::cat("repaired ", name, " ", target));
        } else {
          record_repair(strutil::cat("repair_failed ", name, " ", target));
        }
      });
    } else {
      record_repair(strutil::cat("lost ", name));
    }
  }
  return repairs;
}

}  // namespace ripple::core
