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
/// last-use stamps from a logical clock, name as the tie-break.
///
/// Every query resolves its name with one hash probe: datasets are kept
/// in an unordered map by canonical name, and each alias maps straight
/// to its canonical entry (entries never move: unordered_map nodes are
/// stable and no dataset is ever erased), so an alias or an unknown
/// name costs a second probe at most. find() hands callers the Dataset
/// itself, so a caller that needs residency, size and zones resolves the
/// name once. Nothing iterates the index except fail_store(), which
/// sorts what it returns.
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
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  /// Declares (or resizes) the store of `zone` to a finite capacity in
  /// bytes. Zones never declared have infinite capacity. Shrinking
  /// below the currently used+reserved bytes throws.
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
  /// names of datasets that lost a replica, sorted (the index itself is
  /// unordered, so the list is sorted explicitly). Pins held on
  /// force-dropped replicas are remembered so the interrupted readers'
  /// later unpin() calls are tolerated no-ops; pin() on a lost replica
  /// still throws.
  std::vector<std::string> fail_store(const std::string& zone);

  /// Zones with a declared store, sorted.
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
  struct Replica {
    std::uint64_t last_use = 0;
    std::size_t pins = 0;  ///< total across tenants (protection uses this)
    std::map<std::string, std::size_t> pins_by_tenant;
    std::string owner;  ///< tenant whose commit landed it ("" = shared)
  };

  struct Entry {
    Dataset info;
    std::map<std::string, Replica> replicas;  ///< zone -> state
  };

  struct Store {
    StoreInfo info;
    /// LRU index: (last_use, dataset) ascending. last_use stamps are
    /// unique per touch, dataset tie-break keeps determinism if a
    /// future refactor reuses stamps.
    std::set<std::pair<std::uint64_t, std::string>> lru;
    /// Reservations not yet released or committed. When it returns to
    /// 0, info.reserved (a running sum that gathers rounding dust from
    /// fractional sizes) is reset to exactly 0.
    std::size_t reservations = 0;
    std::map<std::string, double> used_by_tenant;
    std::map<std::string, double> reserved_by_tenant;
    std::map<std::string, double> quota;  ///< tenant -> byte cap
  };

  /// True when the replica of `entry` may not be evicted.
  [[nodiscard]] bool protected_replica(const Entry& entry,
                                       const Replica& replica) const;

  /// Evicts LRU unprotected replicas of `zone` until `bytes` fit.
  /// Returns false (leaving a partial eviction trail) when impossible.
  bool make_room(const std::string& zone, double bytes);

  void add_replica(Entry& entry, const std::string& zone);
  void remove_from_lru(Store& store, std::uint64_t last_use,
                       const std::string& name);
  void uncharge_owner(Store& store, const Replica& replica, double bytes);
  /// Returns one reservation of `bytes` made by `tenant` (released or
  /// committed) to the store's pools.
  void unreserve(Store& store, double bytes, const std::string& tenant);

  /// The entry `name` resolves to, or null: one probe of datasets_ for a
  /// canonical name, a second of aliases_ for an alias or unknown name.
  [[nodiscard]] const Entry* lookup(const std::string& name) const;
  [[nodiscard]] Entry* lookup(const std::string& name);
  /// lookup() that throws not_found for an unknown name.
  [[nodiscard]] Entry& entry_for(const std::string& name);
  [[nodiscard]] const Entry& entry_for(const std::string& name) const;
  [[nodiscard]] Store& store_for(const std::string& zone);

  std::unordered_map<std::string, Entry> datasets_;  ///< canonical -> entry
  /// Alias -> its canonical entry. No name is both an alias and a key of
  /// datasets_.
  std::unordered_map<std::string, Entry*> aliases_;
  std::unordered_map<std::string, Entry*> content_index_;  ///< cid -> entry
  std::map<std::string, Store> stores_;
  /// (zone, dataset) -> pins force-dropped by fail_store, kept so late
  /// unpin() calls from interrupted readers do not throw (unpin()
  /// searches it only while it is non-empty).
  std::map<std::pair<std::string, std::string>, std::size_t> lost_pins_;
  /// canonical name (or a name not registered yet) -> tenant -> consumers
  /// left; a name is present only while it has consumers left.
  std::unordered_map<std::string, std::map<std::string, std::size_t>>
      lineage_;
  std::uint64_t clock_ = 0;
  std::uint64_t total_evictions_ = 0;
  std::vector<std::string> eviction_log_;
};

}  // namespace ripple::data
