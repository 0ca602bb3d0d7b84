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
  Store& store = stores_[zone_for(zone)];
  // Same ULP tolerance as every other capacity comparison: the in-use
  // pools carry rounding dust from long +=/-= chains, and a shrink to
  // the exact nominal footprint must not misfire over it.
  const double in_use = store.info.used + store.info.reserved;
  ensure(capacity_bytes >= in_use - slack(in_use), Errc::invalid_state,
         "store '", zone, "' cannot shrink below ", in_use, " bytes in use");
  store.info.capacity = capacity_bytes;
  store.declared = true;
}

void ReplicaCatalog::register_dataset(const std::string& name, double bytes,
                                      const std::string& zone,
                                      const std::string& content_id) {
  ensure(!name.empty(), Errc::invalid_argument, "dataset needs a name");
  ensure(bytes >= 0.0, Errc::invalid_argument, "dataset bytes must be >= 0");
  const DatasetId* known = lookup(name);
  if (!content_id.empty()) {
    const auto cit = content_index_.find(content_id);
    if (cit != content_index_.end() &&
        (known == nullptr || *known != cit->second)) {
      // The content id already has a canonical dataset under another
      // name: `name` becomes an alias of it. A name that is already a
      // distinct dataset (or an alias of a different one) cannot be
      // re-bound — that would silently merge two different blobs.
      const DatasetId canon = cit->second;
      const std::string* bound =
          known == nullptr ? nullptr : &records_[*known].info.name;
      ensure(bound == nullptr || *bound != name, Errc::invalid_state,
             "dataset '", name,
             "' already registered; cannot re-bind it to content id '",
             content_id, "'");
      ensure(bound == nullptr, Errc::invalid_state, "dataset '", name,
             "' already aliases '", bound == nullptr ? name : *bound,
             "'; cannot re-bind to '", records_[canon].info.name, "'");
      names_.emplace(aliases_.emplace_back(name), canon);
      // Lineage recorded against the alias name before the alias
      // existed (consumers registered ahead of production) now
      // protects the canonical entry.
      adopt_lineage(name, canon);
      add_replica(canon, zone);
      return;
    }
  }
  DatasetId id = 0;
  if (known == nullptr) {
    id = static_cast<DatasetId>(records_.size());
    Record& record = records_.emplace_back();
    record.info.name = name;
    record.info.bytes = bytes;
    names_.emplace(record.info.name, id);
    adopt_lineage(name, id);
  } else {
    id = *known;
  }
  Dataset& info = records_[id].info;
  if (!content_id.empty()) {
    if (info.content_id.empty()) {
      info.content_id = content_id;
      content_index_.emplace(content_id, id);
    } else {
      ensure(info.content_id == content_id, Errc::invalid_state,
             "dataset '", info.name, "' has content id '", info.content_id,
             "'; cannot re-register as '", content_id, "'");
    }
  }
  add_replica(id, zone);
}

const Dataset* ReplicaCatalog::find(const std::string& name) const {
  const DatasetId* id = lookup(name);
  return id == nullptr ? nullptr : &records_[*id].info;
}

bool ReplicaCatalog::has(const std::string& name) const {
  return lookup(name) != nullptr;
}

const Dataset& ReplicaCatalog::dataset(const std::string& name) const {
  return record_for(name).info;
}

bool ReplicaCatalog::available_in(const std::string& name,
                                  const std::string& zone) const {
  const DatasetId* id = lookup(name);
  return id != nullptr && replica_in(records_[*id], zone) != nullptr;
}

const std::string& ReplicaCatalog::canonical(const std::string& name) const {
  const DatasetId* id = lookup(name);
  return id == nullptr ? name : records_[*id].info.name;
}

// ---------------------------------------------------------------------------
// Transfer admission
// ---------------------------------------------------------------------------

bool ReplicaCatalog::reserve(const std::string& zone, double bytes,
                             const std::string& tenant) {
  ensure(bytes >= 0.0, Errc::invalid_argument,
         "reservation must be >= 0 bytes");
  const ZoneId z = zone_for(zone);
  Store& store = stores_[z];
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
  if (!make_room(z, bytes)) return false;
  store.info.reserved += bytes;
  ++store.reservations;
  if (!tenant.empty()) store.reserved_by_tenant[tenant] += bytes;
  return true;
}

void ReplicaCatalog::release_reservation(const std::string& zone,
                                         double bytes,
                                         const std::string& tenant) {
  Store& store = stores_[zone_for(zone)];
  ensure(store.info.reserved >= bytes - slack(bytes), Errc::invalid_state,
         "store '", zone, "' releasing more than reserved");
  unreserve(store, bytes, tenant);
}

void ReplicaCatalog::commit_replica(const std::string& name,
                                    const std::string& zone,
                                    const std::string& tenant) {
  const DatasetId* id = lookup(name);
  ensure(id != nullptr, Errc::not_found, "unknown dataset '", name, "'");
  Record& record = records_[*id];
  const ZoneId z = zone_for(zone);
  Store& store = stores_[z];
  const double bytes = record.info.bytes;
  ensure(store.info.reserved >= bytes - slack(bytes), Errc::invalid_state,
         "committing '", name, "' in '", zone, "' without a reservation");
  unreserve(store, bytes, tenant);
  if (replica_in(record, zone) != nullptr) return;  // landed twice: keep one
  insert_replica(*id, z, tenant);
  if (!tenant.empty()) store.used_by_tenant[tenant] += bytes;
}

void ReplicaCatalog::touch(const std::string& name, const std::string& zone) {
  const DatasetId* id = lookup(name);
  if (id == nullptr) return;
  Replica* replica = replica_in(records_[*id], zone);
  if (replica != nullptr) bump(*id, *replica);
}

bool ReplicaCatalog::drop_replica(const std::string& name,
                                  const std::string& zone) {
  const DatasetId* id = lookup(name);
  if (id == nullptr) return false;
  Record& record = records_[*id];
  const Replica* replica = replica_in(record, zone);
  if (replica == nullptr || protected_replica(record, *replica)) return false;
  stores_[replica->zone].lru.erase({replica->last_use, *id});
  erase_replica(record, *replica);
  return true;
}

// ---------------------------------------------------------------------------
// Pinning & lineage
// ---------------------------------------------------------------------------

void ReplicaCatalog::pin(const std::string& name, const std::string& zone,
                         const std::string& tenant) {
  Replica* replica = replica_in(record_for(name), zone);
  ensure(replica != nullptr, Errc::not_found, "pin: no replica of '", name,
         "' in '", zone, "'");
  ++replica->pins;
  if (!tenant.empty()) ++replica->pins_by_tenant[tenant];
}

void ReplicaCatalog::unpin(const std::string& name, const std::string& zone,
                           const std::string& tenant) {
  const DatasetId* id = lookup(name);
  // A pin taken before the zone's store failed: the replica was
  // force-dropped, and the interrupted reader's release is tolerated
  // (whichever tenant held it — lost pins are tracked by total).
  if (id != nullptr && !lost_pins_.empty()) {
    const auto lost = lost_pins_.find({zones_.find(zone), *id});
    if (lost != lost_pins_.end()) {
      if (--lost->second == 0) lost_pins_.erase(lost);
      return;
    }
  }
  ensure(id != nullptr, Errc::not_found, "unknown dataset '", name, "'");
  Replica* replica = replica_in(records_[*id], zone);
  ensure(replica != nullptr, Errc::not_found, "unpin: no replica of '", name,
         "' in '", zone, "'");
  ensure(replica->pins > 0, Errc::invalid_state, "unpin: '", name, "' in '",
         zone, "' is not pinned");
  if (!tenant.empty()) {
    const auto held = replica->pins_by_tenant.find(tenant);
    ensure(held != replica->pins_by_tenant.end() && held->second > 0,
           Errc::invalid_state, "unpin: tenant '", tenant,
           "' holds no pin on '", name, "' in '", zone, "'");
    if (--held->second == 0) replica->pins_by_tenant.erase(held);
  }
  --replica->pins;
}

std::size_t ReplicaCatalog::pins(const std::string& name,
                                 const std::string& zone) const {
  const DatasetId* id = lookup(name);
  if (id == nullptr) return 0;
  const Replica* replica = replica_in(records_[*id], zone);
  return replica == nullptr ? 0 : replica->pins;
}

void ReplicaCatalog::add_consumers(const std::string& name,
                                   std::size_t count,
                                   const std::string& tenant) {
  if (count == 0) return;
  const DatasetId* id = lookup(name);
  if (id == nullptr) {
    early_lineage_[name][tenant] += count;
    return;
  }
  add_lineage(*id, tenant, count);
}

void ReplicaCatalog::add_lineage(DatasetId id, const std::string& tenant,
                                 std::size_t count) {
  records_[id].consumers += count;
  consumers_by_tenant_[{id, tenant}] += count;
}

void ReplicaCatalog::consume_done(const std::string& name,
                                  const std::string& tenant) {
  // Both lineage maps hold a tenant's count only while it is nonzero.
  if (const DatasetId* id = lookup(name)) {
    Record& record = records_[*id];
    ensure(record.consumers > 0, Errc::invalid_state, "consume_done: '",
           name, "' has no consumers left");
    const auto held = consumers_by_tenant_.find({*id, tenant});
    ensure(held != consumers_by_tenant_.end(), Errc::invalid_state,
           "consume_done: tenant '", tenant, "' holds no consumers of '",
           name, "'");
    --record.consumers;
    if (--held->second == 0) consumers_by_tenant_.erase(held);
    return;
  }
  const auto early = early_lineage_.find(name);
  ensure(early != early_lineage_.end(), Errc::invalid_state,
         "consume_done: '", name, "' has no consumers left");
  const auto held = early->second.find(tenant);
  ensure(held != early->second.end(), Errc::invalid_state,
         "consume_done: tenant '", tenant, "' holds no consumers of '", name,
         "'");
  if (--held->second == 0) early->second.erase(held);
  if (early->second.empty()) early_lineage_.erase(early);
}

std::size_t ReplicaCatalog::consumers_left(const std::string& name) const {
  const DatasetId* id = lookup(name);
  if (id != nullptr) return records_[*id].consumers;
  const auto it = early_lineage_.find(name);
  if (it == early_lineage_.end()) return 0;
  std::size_t total = 0;
  for (const auto& [tenant, count] : it->second) total += count;
  return total;
}

void ReplicaCatalog::adopt_lineage(const std::string& name, DatasetId id) {
  if (early_lineage_.empty()) return;
  const auto early = early_lineage_.extract(name);
  if (!early) return;
  for (const auto& [tenant, count] : early.mapped()) {
    add_lineage(id, tenant, count);
  }
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

void ReplicaCatalog::set_tenant_quota(const std::string& zone,
                                      const std::string& tenant,
                                      double bytes) {
  ensure(!tenant.empty(), Errc::invalid_argument, "quota needs a tenant");
  ensure(bytes >= 0.0, Errc::invalid_argument, "quota must be >= 0 bytes");
  stores_[zone_for(zone)].quota[tenant] = bytes;
}

double ReplicaCatalog::tenant_usage(const std::string& zone,
                                    const std::string& tenant) const {
  const ZoneId z = zones_.find(zone);
  if (z == ZoneNames::kNone) return 0.0;
  const Store& store = stores_[z];
  double held = 0.0;
  const auto u = store.used_by_tenant.find(tenant);
  if (u != store.used_by_tenant.end()) held += u->second;
  const auto r = store.reserved_by_tenant.find(tenant);
  if (r != store.reserved_by_tenant.end()) held += r->second;
  return held;
}

// ---------------------------------------------------------------------------
// Introspection & internals
// ---------------------------------------------------------------------------

StoreInfo ReplicaCatalog::store(const std::string& zone) const {
  const ZoneId z = zones_.find(zone);
  return z == ZoneNames::kNone ? StoreInfo{} : stores_[z].info;
}

std::vector<std::string> ReplicaCatalog::store_zones() const {
  std::vector<std::string> zones;
  for (std::size_t z = 0; z < stores_.size(); ++z) {
    if (stores_[z].declared) zones.push_back(zones_.name(z));
  }
  std::sort(zones.begin(), zones.end());
  return zones;
}

std::vector<std::string> ReplicaCatalog::fail_store(const std::string& zone) {
  const ZoneId z = zones_.find(zone);
  if (z == ZoneNames::kNone) return {};
  // Every replica in the zone, declared store or not, has an entry in
  // its LRU index.
  Store& store = stores_[z];
  std::vector<std::string> lost;
  lost.reserve(store.lru.size());
  for (const auto& [last_use, id] : store.lru) {
    Record& record = records_[id];
    const Replica& replica = replica_at(record, z);
    if (replica.pins > 0) lost_pins_[{z, id}] += replica.pins;
    lost.push_back(record.info.name);
    erase_replica(record, replica);
  }
  // The walk is in recency order; callers repair in the returned order.
  std::sort(lost.begin(), lost.end());
  store = Store{};
  return lost;
}

bool ReplicaCatalog::make_room(ZoneId zone, double bytes) {
  Store& store = stores_[zone];
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
    Record& record = records_[it->second];
    const Replica& replica = replica_at(record, zone);
    if (protected_replica(record, replica)) {
      ++it;
      continue;
    }
    it = store.lru.erase(it);
    erase_replica(record, replica);
    ++total_evictions_;
    ++store.info.evictions;
    eviction_log_.push_back(
        strutil::cat(zones_.name(zone), "/", record.info.name));
  }
  return store.info.free() >= need;
}

void ReplicaCatalog::add_replica(DatasetId id, const std::string& zone) {
  ensure(!zone.empty(), Errc::invalid_argument, "replica needs a zone");
  Record& record = records_[id];
  if (Replica* replica = replica_in(record, zone)) {
    bump(id, *replica);
    return;
  }
  const ZoneId z = zone_for(zone);
  ensure(make_room(z, record.info.bytes), Errc::capacity, "store '", zone,
         "' cannot fit dataset '", record.info.name, "' (",
         record.info.bytes, " bytes)");
  insert_replica(id, z, "");
}

void ReplicaCatalog::insert_replica(DatasetId id, ZoneId zone,
                                    std::string owner) {
  Record& record = records_[id];
  Store& store = stores_[zone];
  record.info.zones.insert(zones_.name(zone));
  Replica& replica = record.replicas.emplace_back();
  replica.zone = zone;
  replica.last_use = ++clock_;
  replica.owner = std::move(owner);
  store.lru.emplace_hint(store.lru.end(), replica.last_use, id);
  store.info.used += record.info.bytes;
}

void ReplicaCatalog::erase_replica(Record& record, const Replica& replica) {
  Store& store = stores_[replica.zone];
  store.info.used -= record.info.bytes;
  if (store.info.used < 0.0) store.info.used = 0.0;
  uncharge_owner(store, replica, record.info.bytes);
  record.info.zones.erase(zones_.name(replica.zone));
  // The list is unordered: the last replica fills the hole.
  auto& replicas = record.replicas;
  const auto index = static_cast<std::size_t>(&replica - replicas.data());
  if (index + 1 != replicas.size()) {
    replicas[index] = std::move(replicas.back());
  }
  replicas.pop_back();
  // Most datasets end up with no replica (evicted intermediates): free
  // the list's buffer.
  if (replicas.empty()) replicas.shrink_to_fit();
}

void ReplicaCatalog::bump(DatasetId id, Replica& replica) {
  auto& lru = stores_[replica.zone].lru;
  // The fresh stamp is the largest: the node moves to the tail without
  // a new allocation.
  auto node = lru.extract({replica.last_use, id});
  replica.last_use = ++clock_;
  node.value().first = replica.last_use;
  lru.insert(lru.end(), std::move(node));
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

const ReplicaCatalog::DatasetId* ReplicaCatalog::lookup(
    const std::string& name) const {
  const auto it = names_.find(name);
  return it == names_.end() ? nullptr : &it->second;
}

const ReplicaCatalog::Record& ReplicaCatalog::record_for(
    const std::string& name) const {
  const DatasetId* id = lookup(name);
  ensure(id != nullptr, Errc::not_found, "unknown dataset '", name, "'");
  return records_[*id];
}

ReplicaCatalog::Record& ReplicaCatalog::record_for(const std::string& name) {
  return const_cast<Record&>(std::as_const(*this).record_for(name));
}

const ReplicaCatalog::Replica* ReplicaCatalog::replica_in(
    const Record& record, const std::string& zone) const {
  for (const Replica& replica : record.replicas) {
    if (zones_.name(replica.zone) == zone) return &replica;
  }
  return nullptr;
}

ReplicaCatalog::Replica* ReplicaCatalog::replica_in(Record& record,
                                                    const std::string& zone) {
  return const_cast<Replica*>(std::as_const(*this).replica_in(record, zone));
}

const ReplicaCatalog::Replica& ReplicaCatalog::replica_at(const Record& record,
                                                          ZoneId zone) {
  return *std::find_if(
      record.replicas.begin(), record.replicas.end(),
      [zone](const Replica& replica) { return replica.zone == zone; });
}

ReplicaCatalog::ZoneId ReplicaCatalog::zone_for(const std::string& zone) {
  const ZoneId z = zones_.intern(zone);
  if (z == stores_.size()) stores_.emplace_back();
  return z;
}

}  // namespace ripple::data
