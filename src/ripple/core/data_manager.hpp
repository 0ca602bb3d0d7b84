#pragma once

/// \file data_manager.hpp
/// Dataset registry and staging facade over the data plane.
///
/// The paper collects "existing data capabilities into a DataManager".
/// Since the data-plane rework this class is a thin compatibility
/// facade over two subsystems it owns: the data::ReplicaCatalog
/// (datasets, finite per-zone stores, pinning/lineage, LRU eviction)
/// and the data::TransferEngine (fair-share shared-link transfer
/// scheduling with concurrency caps and retries). Existing call sites —
/// stage(), stage_all(), put() — keep working unchanged; new code can
/// reach the full surface through catalog() and engine().
///
/// Staging a task means ensuring its input datasets are present in the
/// pilot's zone. Concurrent stages of one (dataset, zone) pair share a
/// single transfer; stage_all() cancels its surviving siblings when one
/// dataset fails, so no batch leaves untracked transfers behind. A
/// dataset replicated in several zones stages as one multi-source
/// striped transfer (every replica's link contributes its fair share);
/// prefetch() additionally pushes datasets toward a likely consumer
/// zone on idle links ahead of demand, without ever evicting and within
/// a per-store in-flight budget.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/data/catalog.hpp"
#include "ripple/data/transfer_engine.hpp"

namespace ripple::core {

using data::Dataset;

class DataManager {
 public:
  explicit DataManager(Runtime& runtime);

  /// Registers a dataset resident in `zone`. Re-registering adds a
  /// replica location. A non-empty `content_id` names the dataset's
  /// content: names sharing a content id alias one canonical dataset in
  /// the catalog, so tenants publishing the same bytes under their own
  /// names share replicas (and warm-cache hits) instead of copies.
  void register_dataset(const std::string& name, double bytes,
                        const std::string& zone,
                        const std::string& content_id = "");

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const Dataset& dataset(const std::string& name) const;
  [[nodiscard]] bool available_in(const std::string& name,
                                  const std::string& zone) const;

  /// Declares a finite store for `zone` (bytes); see ReplicaCatalog.
  void add_store(const std::string& zone, double capacity_bytes);

  /// Transfer-service handshake latency (default ~1.5 s, Globus-like).
  void set_setup_latency(common::Distribution dist);

  /// Explicit bulk-bandwidth override between two zones (bytes/s,
  /// symmetric). Zone pairs without an override use the sim::Network
  /// link model's bandwidth; pairs the network does not model fall back
  /// to `default_bandwidth`.
  void set_bandwidth(const std::string& zone_a, const std::string& zone_b,
                     double bytes_per_s);
  void set_default_bandwidth(double bytes_per_s);

  /// Bytes of `names` without a replica in `zone` (the footprint a
  /// ScheduleRequest carries for locality-aware placement).
  [[nodiscard]] double bytes_required(const std::vector<std::string>& names,
                                      const std::string& zone) const;

  using TransferCallback = std::function<void(bool ok, sim::Duration)>;

  /// Ensures `name` is replicated into `dst_zone`; instantaneous when a
  /// replica already exists there. Concurrent transfers of the same
  /// dataset to the same zone share one copy (callers all complete when
  /// the first transfer lands).
  /// `tenant` attributes the staging work for multi-tenant accounting:
  /// the store reservation counts against the tenant's quota, the
  /// transfer rides the tenant's weighted link share, and the committed
  /// replica is charged to the tenant. Empty (the default) opts out.
  void stage(const std::string& name, const std::string& dst_zone,
             TransferCallback on_done, const std::string& tenant = "");

  /// Handle for cancelling one stage() waiter; 0 when the request
  /// completed (or failed) without an in-flight transfer.
  using StageTicket = std::uint64_t;

  /// stage() returning a cancellable ticket. Cancelling the last waiter
  /// of a shared transfer aborts the transfer itself.
  StageTicket stage_tracked(const std::string& name,
                            const std::string& dst_zone,
                            TransferCallback on_done,
                            const std::string& tenant = "");

  /// Cancels a pending staged waiter; its callback never fires. Returns
  /// false when the ticket already completed.
  bool cancel_stage(StageTicket ticket);

  using BatchCallback =
      std::function<void(bool ok, const std::string& failed_dataset)>;

  /// Stages every dataset in `names` into `dst_zone` and fires `on_done`
  /// exactly once: (false, name) as soon as any transfer fails — at
  /// which point the batch's remaining in-flight stages are cancelled
  /// (transfers shared with other callers keep running for them) — or
  /// (true, "") when all have landed. An empty batch completes
  /// asynchronously on the next event-loop turn.
  void stage_all(const std::vector<std::string>& names,
                 const std::string& dst_zone, BatchCallback on_done,
                 const std::string& tenant = "");

  /// Opaque handle to a stage_all batch; null when the batch completed
  /// inline (empty name list).
  using BatchHandle = std::shared_ptr<void>;

  /// stage_all() returning a handle for cancel_batch().
  BatchHandle stage_all_tracked(const std::vector<std::string>& names,
                                const std::string& dst_zone,
                                BatchCallback on_done,
                                const std::string& tenant = "");

  /// Pair form: per-target destination zones — the stage-out fan-out,
  /// where each produced dataset may go somewhere else. Same batch
  /// semantics (first failure cancels the surviving siblings).
  BatchHandle stage_all_tracked(
      const std::vector<std::pair<std::string, std::string>>& targets,
      BatchCallback on_done, const std::string& tenant = "");

  /// Abandons a batch: its remaining in-flight stages are cancelled
  /// (transfers shared with other callers keep running for them) and
  /// the batch callback never fires. No-op for null or already
  /// completed/failed handles. Callers cancelling a task mid-stage-in
  /// use this so abandoned transfers stop burning link bandwidth.
  void cancel_batch(const BatchHandle& handle);

  /// Records a task-produced dataset (stage-out target). A non-empty
  /// `content_id` deduplicates against identical content published
  /// under other names (see register_dataset).
  void put(const std::string& name, double bytes, const std::string& zone,
           const std::string& content_id = "");

  // --- failure handling -----------------------------------------------------

  /// The zone's store crashed. Flights *into* it are cancelled (their
  /// waiters fail on the next loop turn), the catalog force-drops every
  /// replica it held (fail_store), and each lost dataset that still has
  /// a surviving replica elsewhere is re-replicated ("repaired") into
  /// the declared store with the most free bytes that does not already
  /// hold it — a striped re-stripe from the survivors over the existing
  /// stage() path. Datasets with no survivor are logged as lost.
  /// Flights *from* the zone keep running (their bytes are modeled as
  /// already in flight; the catalog tolerates their late unpins).
  /// Returns the number of repairs started.
  std::size_t handle_store_failure(const std::string& zone);

  /// Ordered "t event" lines for every store-failure repair decision —
  /// the repair determinism oracle, FNV-fingerprinted.
  [[nodiscard]] const std::vector<std::string>& repair_log() const noexcept {
    return repair_log_;
  }
  [[nodiscard]] std::uint64_t repair_log_hash() const noexcept {
    return repair_hash_;
  }
  [[nodiscard]] std::uint64_t repairs_started() const noexcept {
    return repairs_started_;
  }
  [[nodiscard]] std::uint64_t repairs_completed() const noexcept {
    return repairs_completed_;
  }

  // --- replication-ahead ----------------------------------------------------

  /// Opportunistically replicates `names` toward `zone` ahead of
  /// demand (stage lookahead). A prefetch is strictly best-effort: it
  /// only uses sources whose link to `zone` is currently idle, never
  /// evicts (the store must have genuinely free bytes), and the bytes
  /// in flight per store are bounded by the prefetch budget — datasets
  /// that fail any bound are skipped silently. A later stage() of the
  /// same (dataset, zone) pair piggybacks on the in-flight prefetch,
  /// and a demand reservation that does not fit reclaims waiterless
  /// prefetch flights (speculation never starves real work). Returns
  /// the number of prefetch transfers started.
  std::size_t prefetch(const std::vector<std::string>& names,
                       const std::string& zone,
                       const std::string& tenant = "");

  /// Abandons the in-flight *prefetch* of (`name`, `zone`): cancels the
  /// transfer, unpins its sources and returns the store reservation.
  /// Strictly a no-op (returning false) when there is no such flight,
  /// when the flight is a demand stage, or when a demand stage has
  /// piggybacked on the prefetch — a waiter turns speculation into real
  /// work, which must not be torn down under it. Callers: workflow
  /// prune, which revokes frontier prefetches whose consumers were
  /// pruned away before the data landed.
  bool abandon_prefetch(const std::string& name, const std::string& zone);

  /// Per-store cap on in-flight prefetched bytes (default 32 GB).
  void set_prefetch_budget(double bytes);

  [[nodiscard]] std::uint64_t prefetches_started() const noexcept {
    return prefetches_started_;
  }
  [[nodiscard]] std::uint64_t prefetches_completed() const noexcept {
    return prefetches_completed_;
  }

  [[nodiscard]] std::uint64_t transfers() const noexcept {
    return engine_.transfers_started();
  }
  [[nodiscard]] double bytes_moved() const noexcept {
    return engine_.bytes_moved();
  }
  [[nodiscard]] std::uint64_t cancelled_transfers() const noexcept {
    return engine_.transfers_cancelled();
  }
  [[nodiscard]] const common::Summary& transfer_times() const noexcept {
    return engine_.transfer_times();
  }

  [[nodiscard]] data::ReplicaCatalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] const data::ReplicaCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] data::TransferEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const data::TransferEngine& engine() const noexcept {
    return engine_;
  }

 private:
  struct StageBatch;

  struct Flight {
    data::TransferEngine::TransferId transfer_id = 0;
    /// Source replicas feeding the (possibly striped) transfer, each
    /// pinned for the flight's duration.
    std::vector<std::string> src_zones;
    double reserved_bytes = 0.0;
    bool prefetch = false;  ///< counts against the prefetch budget
    /// Tenant whose quota/weights the flight rides; pins, reservation
    /// and the committed replica are all charged to (and released with)
    /// this value. Empty for untenanted flights.
    std::string tenant;
    std::vector<std::pair<StageTicket, TransferCallback>> waiters;
  };

  using FlightKey = std::pair<std::string, std::string>;

  /// Launches the transfer of `name` into `dst_zone` (striped across
  /// every replica when there are several) and registers the flight.
  /// `sources` must be non-empty and reserve() must have succeeded.
  Flight& launch_flight(const FlightKey& key,
                        std::vector<std::string> sources, double bytes,
                        bool prefetch, const std::string& tenant);

  using Flights = std::map<FlightKey, Flight>;

  /// Cancels one waiterless prefetch flight into `zone`, returning its
  /// reservation to the store (demand staging outranks speculation).
  /// False when none is left to reclaim.
  bool reclaim_one_prefetch(const std::string& zone);

  void on_flight_done(const FlightKey& key, bool ok, sim::Duration elapsed);

  /// The half of a flight's teardown every ending shares: unpins the
  /// source replicas and returns a prefetch's bytes to its zone's
  /// budget (clamped at 0).
  void release_flight(const FlightKey& key, const Flight& flight);

  /// Abandons a flight before its transfer lands: cancels the transfer,
  /// releases the flight, returns its store reservation and erases it.
  /// The waiters, if any, are the caller's to settle.
  void drop_flight(Flights::iterator it);

  /// Healthiest declared store for a repair replica of `name`: most
  /// free bytes among stores not already holding it, first-sorted zone
  /// on ties; empty when nothing fits.
  [[nodiscard]] std::string repair_target(const std::string& name) const;

  void record_repair(const std::string& event);

  Runtime& runtime_;
  data::ReplicaCatalog catalog_;
  data::TransferEngine engine_;
  Flights flights_;
  std::map<StageTicket, FlightKey> ticket_index_;
  std::map<std::string, double> prefetch_inflight_;  ///< zone -> bytes
  double prefetch_budget_ = 32e9;
  std::uint64_t prefetches_started_ = 0;
  std::uint64_t prefetches_completed_ = 0;
  StageTicket next_ticket_ = 1;
  std::vector<std::string> repair_log_;
  std::uint64_t repair_hash_ = common::kFnvOffsetBasis;
  std::uint64_t repairs_started_ = 0;
  std::uint64_t repairs_completed_ = 0;
};

}  // namespace ripple::core
