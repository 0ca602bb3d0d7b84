#include "ripple/data/catalog.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::data {

namespace {

/// Accounting slack: the reserved/used pools accumulate ULP-scale
/// rounding from long chains of +=/-= on ~1e10-byte quantities, so
/// exact comparisons misfire. One byte (or a relative margin for
/// terabyte-scale datasets) is far below anything the model resolves.
double slack(double bytes) {
  return bytes * 1e-9 > 1.0 ? bytes * 1e-9 : 1.0;
}

}  // namespace

void ReplicaCatalog::add_store(const std::string& zone,
                               double capacity_bytes) {
  ensure(!zone.empty(), Errc::invalid_argument, "store needs a zone name");
  ensure(capacity_bytes >= 0.0, Errc::invalid_argument,
         "store capacity must be >= 0");
  Store& store = stores_[zone];
  // Same ULP tolerance as every other capacity comparison: the in-use
  // pools carry rounding dust from long +=/-= chains, and a shrink to
  // the exact nominal footprint must not misfire over it.
  const double in_use = store.info.used + store.info.reserved;
  ensure(capacity_bytes >= in_use - slack(in_use), Errc::invalid_state,
         "store '", zone, "' cannot shrink below ", in_use, " bytes in use");
  store.info.capacity = capacity_bytes;
}

void ReplicaCatalog::register_dataset(const std::string& name, double bytes,
                                      const std::string& zone,
                                      const std::string& content_id) {
  ensure(!name.empty(), Errc::invalid_argument, "dataset needs a name");
  ensure(bytes >= 0.0, Errc::invalid_argument, "dataset bytes must be >= 0");
  Entry* entry = lookup(name);
  if (!content_id.empty()) {
    const auto cit = content_index_.find(content_id);
    if (cit != content_index_.end() && cit->second != entry) {
      // The content id already has a canonical dataset under another
      // name: `name` becomes an alias of it. A name that is already a
      // distinct dataset (or an alias of a different one) cannot be
      // re-bound — that would silently merge two different blobs.
      Entry& canon = *cit->second;
      ensure(entry == nullptr || entry->info.name != name, Errc::invalid_state,
             "dataset '", name,
             "' already registered; cannot re-bind it to content id '",
             content_id, "'");
      ensure(entry == nullptr, Errc::invalid_state, "dataset '", name,
             "' already aliases '", entry == nullptr ? name : entry->info.name,
             "'; cannot re-bind to '", canon.info.name, "'");
      aliases_.emplace(name, &canon);
      // Lineage recorded against the alias name before the alias
      // existed (consumers registered ahead of production) now
      // protects the canonical entry.
      if (auto early = lineage_.extract(name)) {
        auto& merged = lineage_[canon.info.name];
        for (const auto& [tenant, count] : early.mapped()) {
          merged[tenant] += count;
        }
      }
      add_replica(canon, zone);
      return;
    }
  }
  if (entry == nullptr) {
    entry = &datasets_[name];
    entry->info.name = name;
    entry->info.bytes = bytes;
  }
  if (!content_id.empty()) {
    if (entry->info.content_id.empty()) {
      entry->info.content_id = content_id;
      content_index_.emplace(content_id, entry);
    } else {
      ensure(entry->info.content_id == content_id, Errc::invalid_state,
             "dataset '", entry->info.name, "' has content id '",
             entry->info.content_id, "'; cannot re-register as '",
             content_id, "'");
    }
  }
  add_replica(*entry, zone);
}

const Dataset* ReplicaCatalog::find(const std::string& name) const {
  const Entry* entry = lookup(name);
  return entry == nullptr ? nullptr : &entry->info;
}

bool ReplicaCatalog::has(const std::string& name) const {
  return lookup(name) != nullptr;
}

const Dataset& ReplicaCatalog::dataset(const std::string& name) const {
  return entry_for(name).info;
}

bool ReplicaCatalog::available_in(const std::string& name,
                                  const std::string& zone) const {
  const Entry* entry = lookup(name);
  return entry != nullptr && entry->replicas.count(zone) != 0;
}

const std::string& ReplicaCatalog::canonical(const std::string& name) const {
  const Entry* entry = lookup(name);
  return entry == nullptr ? name : entry->info.name;
}

// ---------------------------------------------------------------------------
// Transfer admission
// ---------------------------------------------------------------------------

bool ReplicaCatalog::reserve(const std::string& zone, double bytes,
                             const std::string& tenant) {
  ensure(bytes >= 0.0, Errc::invalid_argument,
         "reservation must be >= 0 bytes");
  Store& store = store_for(zone);
  if (!tenant.empty()) {
    const auto q = store.quota.find(tenant);
    if (q != store.quota.end()) {
      double held = bytes;
      const auto u = store.used_by_tenant.find(tenant);
      if (u != store.used_by_tenant.end()) held += u->second;
      const auto r = store.reserved_by_tenant.find(tenant);
      if (r != store.reserved_by_tenant.end()) held += r->second;
      // Quota rejection happens before make_room: an over-quota tenant
      // must not evict other tenants' replicas on the way to a "no".
      if (held > q->second + slack(q->second)) return false;
    }
  }
  if (!make_room(zone, bytes)) return false;
  store.info.reserved += bytes;
  ++store.reservations;
  if (!tenant.empty()) store.reserved_by_tenant[tenant] += bytes;
  return true;
}

void ReplicaCatalog::release_reservation(const std::string& zone,
                                         double bytes,
                                         const std::string& tenant) {
  Store& store = store_for(zone);
  ensure(store.info.reserved >= bytes - slack(bytes), Errc::invalid_state,
         "store '", zone, "' releasing more than reserved");
  unreserve(store, bytes, tenant);
}

void ReplicaCatalog::commit_replica(const std::string& name,
                                    const std::string& zone,
                                    const std::string& tenant) {
  Entry& entry = entry_for(name);
  Store& store = store_for(zone);
  ensure(store.info.reserved >= entry.info.bytes - slack(entry.info.bytes),
         Errc::invalid_state, "committing '", name, "' in '", zone,
         "' without a reservation");
  unreserve(store, entry.info.bytes, tenant);
  if (entry.replicas.count(zone) != 0) return;  // landed twice: keep one
  entry.info.zones.insert(zone);
  Replica replica;
  replica.last_use = ++clock_;
  replica.owner = tenant;
  store.lru.insert({replica.last_use, entry.info.name});
  store.info.used += entry.info.bytes;
  if (!tenant.empty()) store.used_by_tenant[tenant] += entry.info.bytes;
  entry.replicas.emplace(zone, replica);
}

void ReplicaCatalog::touch(const std::string& name, const std::string& zone) {
  Entry* entry = lookup(name);
  if (entry == nullptr) return;
  const auto rep = entry->replicas.find(zone);
  if (rep == entry->replicas.end()) return;
  Store& store = store_for(zone);
  remove_from_lru(store, rep->second.last_use, entry->info.name);
  rep->second.last_use = ++clock_;
  store.lru.insert({rep->second.last_use, entry->info.name});
}

bool ReplicaCatalog::drop_replica(const std::string& name,
                                  const std::string& zone) {
  Entry* found = lookup(name);
  if (found == nullptr) return false;
  Entry& entry = *found;
  const auto rep = entry.replicas.find(zone);
  if (rep == entry.replicas.end()) return false;
  if (protected_replica(entry, rep->second)) return false;
  Store& store = store_for(zone);
  remove_from_lru(store, rep->second.last_use, entry.info.name);
  store.info.used -= entry.info.bytes;
  if (store.info.used < 0.0) store.info.used = 0.0;
  uncharge_owner(store, rep->second, entry.info.bytes);
  entry.replicas.erase(rep);
  entry.info.zones.erase(zone);
  return true;
}

// ---------------------------------------------------------------------------
// Pinning & lineage
// ---------------------------------------------------------------------------

void ReplicaCatalog::pin(const std::string& name, const std::string& zone,
                         const std::string& tenant) {
  Entry& entry = entry_for(name);
  const auto rep = entry.replicas.find(zone);
  ensure(rep != entry.replicas.end(), Errc::not_found, "pin: no replica of '",
         name, "' in '", zone, "'");
  ++rep->second.pins;
  if (!tenant.empty()) ++rep->second.pins_by_tenant[tenant];
}

void ReplicaCatalog::unpin(const std::string& name, const std::string& zone,
                           const std::string& tenant) {
  // A pin taken before the zone's store failed: the replica was
  // force-dropped, and the interrupted reader's release is tolerated
  // (whichever tenant held it — lost pins are tracked by total).
  if (!lost_pins_.empty()) {
    const auto lost = lost_pins_.find({zone, canonical(name)});
    if (lost != lost_pins_.end()) {
      if (--lost->second == 0) lost_pins_.erase(lost);
      return;
    }
  }
  Entry& entry = entry_for(name);
  const auto rep = entry.replicas.find(zone);
  ensure(rep != entry.replicas.end(), Errc::not_found, "unpin: no replica of '",
         name, "' in '", zone, "'");
  ensure(rep->second.pins > 0, Errc::invalid_state, "unpin: '", name, "' in '",
         zone, "' is not pinned");
  if (!tenant.empty()) {
    const auto held = rep->second.pins_by_tenant.find(tenant);
    ensure(held != rep->second.pins_by_tenant.end() && held->second > 0,
           Errc::invalid_state, "unpin: tenant '", tenant,
           "' holds no pin on '", name, "' in '", zone, "'");
    if (--held->second == 0) rep->second.pins_by_tenant.erase(held);
  }
  --rep->second.pins;
}

std::size_t ReplicaCatalog::pins(const std::string& name,
                                 const std::string& zone) const {
  const Entry* entry = lookup(name);
  if (entry == nullptr) return 0;
  const auto rep = entry->replicas.find(zone);
  return rep == entry->replicas.end() ? 0 : rep->second.pins;
}

void ReplicaCatalog::add_consumers(const std::string& name,
                                   std::size_t count,
                                   const std::string& tenant) {
  if (count == 0) return;
  lineage_[canonical(name)][tenant] += count;
}

void ReplicaCatalog::consume_done(const std::string& name,
                                  const std::string& tenant) {
  const auto it = lineage_.find(canonical(name));
  ensure(it != lineage_.end(), Errc::invalid_state, "consume_done: '", name,
         "' has no consumers left");
  const auto held = it->second.find(tenant);
  ensure(held != it->second.end() && held->second > 0, Errc::invalid_state,
         "consume_done: tenant '", tenant, "' holds no consumers of '", name,
         "'");
  if (--held->second == 0) it->second.erase(held);
  if (it->second.empty()) lineage_.erase(it);
}

std::size_t ReplicaCatalog::consumers_left(const std::string& name) const {
  const auto it = lineage_.find(canonical(name));
  if (it == lineage_.end()) return 0;
  std::size_t total = 0;
  for (const auto& [tenant, count] : it->second) total += count;
  return total;
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

void ReplicaCatalog::set_tenant_quota(const std::string& zone,
                                      const std::string& tenant,
                                      double bytes) {
  ensure(!tenant.empty(), Errc::invalid_argument, "quota needs a tenant");
  ensure(bytes >= 0.0, Errc::invalid_argument, "quota must be >= 0 bytes");
  store_for(zone).quota[tenant] = bytes;
}

double ReplicaCatalog::tenant_usage(const std::string& zone,
                                    const std::string& tenant) const {
  const auto it = stores_.find(zone);
  if (it == stores_.end()) return 0.0;
  double held = 0.0;
  const auto u = it->second.used_by_tenant.find(tenant);
  if (u != it->second.used_by_tenant.end()) held += u->second;
  const auto r = it->second.reserved_by_tenant.find(tenant);
  if (r != it->second.reserved_by_tenant.end()) held += r->second;
  return held;
}

// ---------------------------------------------------------------------------
// Introspection & internals
// ---------------------------------------------------------------------------

StoreInfo ReplicaCatalog::store(const std::string& zone) const {
  const auto it = stores_.find(zone);
  return it == stores_.end() ? StoreInfo{} : it->second.info;
}

std::vector<std::string> ReplicaCatalog::store_zones() const {
  std::vector<std::string> zones;
  zones.reserve(stores_.size());
  for (const auto& [zone, store] : stores_) zones.push_back(zone);
  return zones;
}

std::vector<std::string> ReplicaCatalog::fail_store(const std::string& zone) {
  std::vector<std::string> lost;
  // Replicas may live in zones never declared via add_store (infinite
  // store), so walk the datasets rather than the store's LRU index.
  for (auto& [name, entry] : datasets_) {
    const auto rep = entry.replicas.find(zone);
    if (rep == entry.replicas.end()) continue;
    if (rep->second.pins > 0) {
      lost_pins_[{zone, name}] += rep->second.pins;
    }
    entry.replicas.erase(rep);
    entry.info.zones.erase(zone);
    lost.push_back(name);
  }
  // The walk is in hash order; callers repair in the returned order.
  std::sort(lost.begin(), lost.end());
  stores_.erase(zone);
  return lost;
}

bool ReplicaCatalog::protected_replica(const Entry& entry,
                                       const Replica& replica) const {
  // Protection is GLOBAL: pins and lineage consumers are summed across
  // every tenant, so one tenant's store pressure can never evict a
  // replica another tenant is still reading (or about to read). lineage_
  // holds a name only while it has consumers left.
  return replica.pins > 0 || lineage_.count(entry.info.name) != 0;
}

bool ReplicaCatalog::make_room(const std::string& zone, double bytes) {
  Store& store = store_for(zone);
  // The same ULP tolerance as release/commit: after long +=/-= chains
  // an exact-fit reservation must neither evict one extra replica nor
  // fail admission over rounding dust.
  const double need = bytes - slack(bytes);
  if (store.info.free() >= need) return true;
  if (bytes > store.info.capacity + slack(bytes)) return false;
  // Walk the LRU index ascending, evicting every unprotected replica
  // until the reservation fits; set::erase returns the next iterator,
  // so the walk survives its own evictions.
  auto it = store.lru.begin();
  while (store.info.free() < need && it != store.lru.end()) {
    const std::string name = it->second;
    Entry& entry = entry_for(name);
    const Replica& replica = entry.replicas.at(zone);
    if (protected_replica(entry, replica)) {
      ++it;
      continue;
    }
    it = store.lru.erase(it);
    store.info.used -= entry.info.bytes;
    if (store.info.used < 0.0) store.info.used = 0.0;
    uncharge_owner(store, replica, entry.info.bytes);
    entry.replicas.erase(zone);
    entry.info.zones.erase(zone);
    ++total_evictions_;
    ++store.info.evictions;
    eviction_log_.push_back(strutil::cat(zone, "/", name));
  }
  return store.info.free() >= need;
}

void ReplicaCatalog::add_replica(Entry& entry, const std::string& zone) {
  ensure(!zone.empty(), Errc::invalid_argument, "replica needs a zone");
  if (entry.replicas.count(zone) != 0) {
    touch(entry.info.name, zone);
    return;
  }
  Store& store = store_for(zone);
  ensure(make_room(zone, entry.info.bytes), Errc::capacity, "store '", zone,
         "' cannot fit dataset '", entry.info.name, "' (", entry.info.bytes,
         " bytes)");
  entry.info.zones.insert(zone);
  Replica replica;
  replica.last_use = ++clock_;
  store.lru.insert({replica.last_use, entry.info.name});
  store.info.used += entry.info.bytes;
  entry.replicas.emplace(zone, replica);
}

void ReplicaCatalog::remove_from_lru(Store& store, std::uint64_t last_use,
                                     const std::string& name) {
  store.lru.erase({last_use, name});
}

void ReplicaCatalog::unreserve(Store& store, double bytes,
                               const std::string& tenant) {
  if (store.reservations > 0) --store.reservations;
  store.info.reserved -= bytes;
  // The last outstanding reservation leaves exactly nothing reserved,
  // whatever rounding dust the running sum has gathered.
  if (store.reservations == 0 || store.info.reserved < 0.0) {
    store.info.reserved = 0.0;
  }
  if (tenant.empty()) return;
  const auto it = store.reserved_by_tenant.find(tenant);
  if (it == store.reserved_by_tenant.end()) return;
  it->second -= bytes;
  if (it->second <= slack(bytes)) store.reserved_by_tenant.erase(it);
}

void ReplicaCatalog::uncharge_owner(Store& store, const Replica& replica,
                                    double bytes) {
  if (replica.owner.empty()) return;
  const auto it = store.used_by_tenant.find(replica.owner);
  if (it == store.used_by_tenant.end()) return;
  it->second -= bytes;
  if (it->second <= slack(bytes)) store.used_by_tenant.erase(it);
}

const ReplicaCatalog::Entry* ReplicaCatalog::lookup(
    const std::string& name) const {
  const auto it = datasets_.find(name);
  if (it != datasets_.end()) return &it->second;
  const auto alias = aliases_.find(name);
  return alias == aliases_.end() ? nullptr : alias->second;
}

ReplicaCatalog::Entry* ReplicaCatalog::lookup(const std::string& name) {
  return const_cast<Entry*>(std::as_const(*this).lookup(name));
}

const ReplicaCatalog::Entry& ReplicaCatalog::entry_for(
    const std::string& name) const {
  const Entry* entry = lookup(name);
  ensure(entry != nullptr, Errc::not_found, "unknown dataset '", name, "'");
  return *entry;
}

ReplicaCatalog::Entry& ReplicaCatalog::entry_for(const std::string& name) {
  return const_cast<Entry&>(std::as_const(*this).entry_for(name));
}

ReplicaCatalog::Store& ReplicaCatalog::store_for(const std::string& zone) {
  return stores_[zone];
}

}  // namespace ripple::data
