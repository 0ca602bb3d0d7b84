#pragma once

/// \file catalog.hpp
/// The replica catalog: datasets, per-zone stores with finite capacity,
/// pinning and lineage reference counts, and deterministic LRU eviction.
///
/// This is the data plane's bookkeeping half (the TransferEngine is the
/// movement half). A dataset is a named byte blob with replicas in one
/// or more zones; each zone has a Store with a capacity (infinite until
/// declared via add_store). Transfers reserve space up front, commit a
/// replica on arrival, and release the reservation on failure, so a
/// store can never overcommit. When a reservation does not fit, the
/// least-recently-used *unprotected* replicas are evicted until it does.
///
/// A replica is protected from eviction while it is pinned (explicit
/// pin()/unpin(), used by workflow stages for the datasets they are
/// actively reading) or while its dataset still has lineage consumers
/// (add_consumers()/consume_done(), driven by workflow lineage: an
/// intermediate becomes evictable only when every stage that reads it
/// has finished). Eviction order is deterministic: strictly ascending
/// last-use stamps from a logical clock, which never repeats a stamp.
///
/// Lookup. Each dataset lives in a record addressed by a 32-bit id in
/// creation order; records never move and no dataset is ever erased.
/// One name index maps canonical names and aliases alike to that id,
/// so every query resolves its name with a single hash probe, and
/// find() hands callers the Dataset itself, so a caller that needs
/// residency, size and zones resolves the name once. Zones are
/// interned: stores sit in a zone-indexed table, and a record keeps
/// its replicas in a short flat list. Each store's LRU index orders
/// (last-use stamp, id) pairs and holds no names, and a registered
/// dataset's lineage count sits on its record, so eviction reads no
/// name until it logs one. Walks whose order shows sort by name:
/// fail_store() and store_zones().
///
/// Multi-tenant sharing. The catalog is one namespace shared by every
/// tenant (concurrent workflow session). Two mechanisms make sharing
/// safe and profitable:
///
///  - *Content addressing.* register_dataset() accepts an optional
///    content id. The first name registered under a content id becomes
///    the canonical dataset; later names with the same id become
///    aliases that resolve to it everywhere (replicas, pins, lineage),
///    so tenant B's "b/corpus" hits tenant A's already-warm replica
///    instead of re-transferring. Lineage recorded against an alias
///    before the alias existed is migrated to the canonical entry.
///  - *Per-tenant accounting with global protection.* Pins and lineage
///    consumers are tagged with the tenant that took them, but eviction
///    protection sums them *globally*: a replica whose only remaining
///    consumers belong to another tenant is not evictable by the owning
///    tenant's store pressure (the cross-tenant corner covered in
///    tests/test_dataplane.cpp). Per-tenant byte quotas
///    (set_tenant_quota) bound how much of a store one tenant's
///    transfers may hold: an over-quota reservation fails *without*
///    evicting anyone else's replicas.
///
/// Tenant ids default to "" (the single-tenant runtime), which keeps
/// every pre-tenant call site bit-identical: no quota applies, no
/// per-tenant maps are touched.

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ripple/data/zone_names.hpp"

namespace ripple::data {

struct Dataset {
  std::string name;
  double bytes = 0.0;
  std::set<std::string> zones;  ///< where committed replicas live

  /// Content address; empty for datasets registered without one. Two
  /// names registered with the same content id share one entry.
  std::string content_id;
};

/// Aggregate view of one zone's store.
struct StoreInfo {
  double capacity = std::numeric_limits<double>::infinity();
  double used = 0.0;  ///< bytes held by committed replicas
  /// Bytes promised to in-flight transfers; exactly 0 whenever none is
  /// outstanding.
  double reserved = 0.0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double free() const noexcept {
    return capacity - used - reserved;
  }
};

class ReplicaCatalog {
 public:
  ReplicaCatalog() = default;
  /// Not copyable: the name index views the names held in records_ and
  /// aliases_. A move keeps them valid (a deque's move keeps its
  /// elements in place).
  ReplicaCatalog(const ReplicaCatalog&) = delete;
  ReplicaCatalog& operator=(const ReplicaCatalog&) = delete;
  ReplicaCatalog(ReplicaCatalog&&) = default;
  ReplicaCatalog& operator=(ReplicaCatalog&&) = default;

  /// Declares (or resizes) the store of `zone` to a finite capacity in
  /// bytes. Zones never declared have infinite capacity. Shrinking
  /// below the currently used+reserved bytes throws (and declares
  /// nothing).
  void add_store(const std::string& zone, double capacity_bytes);

  /// Registers a dataset resident in `zone`; re-registering adds a
  /// replica location (bytes of the first registration win). May evict
  /// to make room; throws Errc::capacity when the store cannot fit the
  /// replica even after evicting everything unprotected.
  ///
  /// `content_id`, when non-empty, content-addresses the dataset: the
  /// first name registered under an id is canonical, later names become
  /// aliases of it (their pre-existing lineage migrates to the
  /// canonical entry). A name already registered as a distinct dataset
  /// cannot be re-bound to another content id (throws invalid_state).
  void register_dataset(const std::string& name, double bytes,
                        const std::string& zone,
                        const std::string& content_id = "");

  /// The dataset `name` (canonical or alias) resolves to; null when
  /// unknown. Stable for the catalog's lifetime: datasets are never
  /// erased, only their replicas.
  [[nodiscard]] const Dataset* find(const std::string& name) const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const Dataset& dataset(const std::string& name) const;
  [[nodiscard]] bool available_in(const std::string& name,
                                  const std::string& zone) const;

  /// The canonical name `name` resolves to (itself unless aliased).
  [[nodiscard]] const std::string& canonical(const std::string& name) const;

  // --- transfer admission -------------------------------------------------

  /// Reserves `bytes` in `zone` for an in-flight transfer, evicting LRU
  /// unprotected replicas as needed. Returns false (reserving nothing)
  /// when the store cannot fit the reservation — or when `tenant` has a
  /// quota in this store and the reservation would exceed it (checked
  /// *before* any eviction, so an over-quota tenant cannot flush other
  /// tenants' replicas on the way to a failed reserve).
  [[nodiscard]] bool reserve(const std::string& zone, double bytes,
                             const std::string& tenant = "");

  /// Returns a reservation made by reserve() (transfer failed/cancelled).
  void release_reservation(const std::string& zone, double bytes,
                           const std::string& tenant = "");

  /// Converts a reservation of dataset(name).bytes into a committed
  /// replica of `name` in `zone`, owned (for per-tenant usage
  /// accounting) by `tenant`.
  void commit_replica(const std::string& name, const std::string& zone,
                      const std::string& tenant = "");

  /// Marks the replica recently used (LRU bump). No-op when absent.
  void touch(const std::string& name, const std::string& zone);

  /// Drops a committed replica; returns false when absent or protected.
  bool drop_replica(const std::string& name, const std::string& zone);

  // --- pinning & lineage --------------------------------------------------

  /// Pin/unpin the replica of `name` in `zone` (pin counts nest, tagged
  /// with the pinning tenant). Pinned replicas are never evicted — by
  /// *any* tenant's pressure. Pinning requires the replica to exist;
  /// unpinning more than `tenant` pinned throws.
  void pin(const std::string& name, const std::string& zone,
           const std::string& tenant = "");
  void unpin(const std::string& name, const std::string& zone,
             const std::string& tenant = "");
  [[nodiscard]] std::size_t pins(const std::string& name,
                                 const std::string& zone) const;

  /// Lineage: records `count` future consumers of `name` on behalf of
  /// `tenant` (the dataset may not be registered yet). While consumers
  /// remain — summed across all tenants — no replica of the dataset is
  /// evicted anywhere.
  void add_consumers(const std::string& name, std::size_t count,
                     const std::string& tenant = "");

  /// One of `tenant`'s consumers finished; at zero total the dataset
  /// becomes evictable.
  void consume_done(const std::string& name, const std::string& tenant = "");

  /// Consumers left across all tenants.
  [[nodiscard]] std::size_t consumers_left(const std::string& name) const;

  // --- tenant quotas ------------------------------------------------------

  /// Caps the bytes `tenant` may hold (committed + reserved) in
  /// `zone`'s store. Tenants without a quota are unbounded. The cap is
  /// enforced by reserve(): an over-quota reservation fails without
  /// evicting.
  void set_tenant_quota(const std::string& zone, const std::string& tenant,
                        double bytes);

  /// Bytes `tenant` currently holds (committed + reserved) in `zone`.
  [[nodiscard]] double tenant_usage(const std::string& zone,
                                    const std::string& tenant) const;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] StoreInfo store(const std::string& zone) const;

  /// The zone's store failed: every replica in it is force-dropped —
  /// pins and lineage notwithstanding — reservations are wiped and the
  /// store itself is forgotten (a later add_store re-declares it; until
  /// then the zone is back to infinite capacity). Returns the canonical
  /// names of datasets that lost a replica, sorted by name (not by id
  /// or recency). Pins held on force-dropped replicas are remembered so
  /// the interrupted readers' later unpin() calls are tolerated no-ops;
  /// pin() on a lost replica still throws.
  std::vector<std::string> fail_store(const std::string& zone);

  /// Zones whose store add_store() declared and fail_store() has not
  /// failed since, sorted by name. A zone that only holds replicas,
  /// reservations or a tenant quota is not listed: it has no finite
  /// store.
  [[nodiscard]] std::vector<std::string> store_zones() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return total_evictions_;
  }

  /// Every eviction in order, as "zone/dataset" — bit-identical across
  /// same-seed runs (the determinism suite diffs it).
  [[nodiscard]] const std::vector<std::string>& eviction_log()
      const noexcept {
    return eviction_log_;
  }

 private:
  using DatasetId = std::uint32_t;
  using ZoneId = ZoneNames::Id;

  struct Replica {
    ZoneId zone = 0;
    std::uint64_t last_use = 0;
    std::size_t pins = 0;  ///< total across tenants (protection uses this)
    std::map<std::string, std::size_t> pins_by_tenant;
    std::string owner;  ///< tenant whose commit landed it ("" = shared)
  };

  /// One dataset, addressed by its creation-order id.
  struct Record {
    Dataset info;
    /// One per zone, unordered; holds no memory once the last is gone.
    std::vector<Replica> replicas;
    /// Lineage consumers left, summed across tenants (protection reads
    /// this; consumers_by_tenant_ has the split).
    std::size_t consumers = 0;
  };

  /// One zone's store, declared or not.
  struct Store {
    bool declared = false;  ///< by add_store, until fail_store
    StoreInfo info;
    /// LRU index: (last_use, dataset id) ascending. Stamps are unique
    /// per touch, so the id only completes the key.
    std::set<std::pair<std::uint64_t, DatasetId>> lru;
    /// Reservations not yet released or committed. When it returns to
    /// 0, info.reserved (a running sum that gathers rounding dust from
    /// fractional sizes) is reset to exactly 0.
    std::size_t reservations = 0;
    std::map<std::string, double> used_by_tenant;
    std::map<std::string, double> reserved_by_tenant;
    std::map<std::string, double> quota;  ///< tenant -> byte cap
  };

  /// True when `replica` of `record` may not be evicted.
  [[nodiscard]] static bool protected_replica(const Record& record,
                                              const Replica& replica) {
    // Protection is GLOBAL: pins and lineage consumers are summed across
    // every tenant, so one tenant's store pressure can never evict a
    // replica another tenant is still reading (or about to read).
    return replica.pins > 0 || record.consumers > 0;
  }

  /// Evicts LRU unprotected replicas of `zone` until `bytes` fit.
  /// Returns false (leaving a partial eviction trail) when impossible.
  bool make_room(ZoneId zone, double bytes);

  void add_replica(DatasetId id, const std::string& zone);
  /// Takes a new replica of `id` into the store of `zone`, stamped now.
  void insert_replica(DatasetId id, ZoneId zone, std::string owner);
  /// Erases `replica` of `record` from the record, its zone set and its
  /// store's bytes (the LRU entry is the caller's).
  void erase_replica(Record& record, const Replica& replica);
  void uncharge_owner(Store& store, const Replica& replica, double bytes);
  /// Returns one reservation of `bytes` made by `tenant` (released or
  /// committed) to the store's pools.
  void unreserve(Store& store, double bytes, const std::string& tenant);
  /// Records `count` consumers of registered dataset `id` for `tenant`.
  void add_lineage(DatasetId id, const std::string& tenant,
                   std::size_t count);
  /// Moves lineage recorded against `name` before it was registered
  /// onto the record `id`.
  void adopt_lineage(const std::string& name, DatasetId id);

  /// The id `name` (canonical or alias) resolves to, or null: one probe
  /// of the name index.
  [[nodiscard]] const DatasetId* lookup(const std::string& name) const;
  /// The record `name` resolves to; throws not_found when unknown.
  [[nodiscard]] Record& record_for(const std::string& name);
  [[nodiscard]] const Record& record_for(const std::string& name) const;
  /// The replica of `record` in the zone named `zone`, or null (a scan
  /// of the record's few replicas).
  [[nodiscard]] const Replica* replica_in(const Record& record,
                                          const std::string& zone) const;
  [[nodiscard]] Replica* replica_in(Record& record, const std::string& zone);
  /// The replica of `record` in zone `zone`, which must exist.
  [[nodiscard]] static const Replica& replica_at(const Record& record,
                                                 ZoneId zone);
  /// Stamps `replica` of `id` as used now and moves it to the LRU tail.
  void bump(DatasetId id, Replica& replica);
  /// The id of `zone`, interning an unknown zone as an undeclared store.
  [[nodiscard]] ZoneId zone_for(const std::string& zone);

  std::deque<Record> records_;  ///< by id; a deque, so records never move
  std::deque<std::string> aliases_;  ///< alias names, in registration order
  /// Canonical names (each viewing its record's name) and aliases
  /// (viewing aliases_) -> id.
  std::unordered_map<std::string_view, DatasetId> names_;
  std::unordered_map<std::string, DatasetId> content_index_;  ///< cid -> id
  ZoneNames zones_;
  std::vector<Store> stores_;  ///< by zone id, in parallel with zones_
  /// (zone, dataset) -> pins force-dropped by fail_store, kept so late
  /// unpin() calls from interrupted readers do not throw (unpin()
  /// searches it only while it is non-empty).
  std::map<std::pair<ZoneId, DatasetId>, std::size_t> lost_pins_;
  /// (dataset, tenant) -> lineage consumers the tenant holds on a
  /// registered dataset; present only while nonzero.
  std::map<std::pair<DatasetId, std::string>, std::size_t>
      consumers_by_tenant_;
  /// Name not registered yet -> tenant -> consumers left; moved onto the
  /// record when the name is registered. A name is present only while
  /// it has consumers left.
  std::unordered_map<std::string, std::map<std::string, std::size_t>>
      early_lineage_;
  std::uint64_t clock_ = 0;
  std::uint64_t total_evictions_ = 0;
  std::vector<std::string> eviction_log_;
};

}  // namespace ripple::data
