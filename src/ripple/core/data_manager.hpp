#pragma once

/// \file data_manager.hpp
/// Dataset registry and the one staging call over the data plane.
///
/// The paper collects "existing data capabilities into a DataManager".
/// This class owns the two data-plane subsystems: the
/// data::ReplicaCatalog (datasets, finite per-zone stores,
/// pinning/lineage, LRU eviction) and the data::TransferEngine
/// (fair-share shared-link transfer scheduling with concurrency caps and
/// retries). Staging has one way in: stage() takes a list of (dataset,
/// zone) targets, returns a ticket for cancel_stage() and calls back
/// once. The full subsystem surface stays reachable through catalog()
/// and engine().
///
/// Concurrent stages of one (dataset, zone) pair share a single
/// transfer. A call's first failure withdraws its other targets, so no
/// call leaves untracked transfers behind. A dataset replicated in
/// several zones stages as one multi-source striped transfer (every
/// replica's link contributes its fair share); prefetch() additionally
/// pushes datasets toward a likely consumer zone on idle links ahead of
/// demand, without ever evicting and within a per-store in-flight
/// budget.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
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

  /// One staging target: replicate `dataset` into `zone`.
  struct StageTarget {
    std::string dataset;
    std::string zone;
  };

  /// Names one pending stage() call for cancel_stage(); 0 names none.
  using StageTicket = std::uint64_t;

  using StageCallback =
      std::function<void(bool ok, const std::string& failed_dataset)>;

  /// Stages every target and calls `on_done` exactly once, on a later
  /// loop turn: (true, "") when all have landed, or (false, dataset) at
  /// the first target that fails, which withdraws the call's other
  /// targets (a transfer no other caller waits on is cancelled).
  ///
  /// A target already resident completes at once and counts as a use.
  /// A target already inbound rides the transfer in flight, so
  /// concurrent stages of one (dataset, zone) pair, or of aliases of one
  /// content id, share a single copy. Any other target reserves room in
  /// the zone's store (reclaiming waiterless prefetches when the dataset
  /// could ever fit) and transfers from every replica. An unknown
  /// dataset, one with no replica left, or one the store cannot take
  /// fails.
  ///
  /// `tenant` attributes the work for multi-tenant accounting: the
  /// store reservation counts against the tenant's quota, the transfer
  /// rides the tenant's weighted link share, and the committed replica
  /// is charged to the tenant. Empty (the default) opts out. An empty
  /// target list returns 0 and calls back (true, "").
  StageTicket stage(std::vector<StageTarget> targets, StageCallback on_done,
                    const std::string& tenant = "");

  /// Withdraws a pending call: its callback never fires, and its
  /// transfers that no other caller waits on are cancelled. Callers
  /// abandoning a task mid-stage use this so the transfers stop burning
  /// link bandwidth. False for 0, unknown and already settled tickets.
  bool cancel_stage(StageTicket ticket);

  // --- failure handling -----------------------------------------------------

  /// The zone's store crashed. Flights *into* it are cancelled (their
  /// waiters fail on the next loop turn), the catalog force-drops every
  /// replica it held (fail_store), and each lost dataset that still has
  /// a surviving replica elsewhere is re-replicated ("repaired") into
  /// the declared store with the most free bytes that does not already
  /// hold it — a striped re-stripe from the survivors through stage().
  /// Datasets with no survivor are logged as lost.
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
  /// One pending stage() call, keyed by its ticket.
  struct Call {
    std::vector<StageTarget> targets;
    std::size_t remaining = 0;  ///< targets not yet landed
    StageCallback on_done;
  };

  /// A call's target waiting on a flight.
  struct Waiter {
    StageTicket ticket = 0;
    std::size_t target = 0;  ///< index into the call's targets
    friend bool operator==(const Waiter&, const Waiter&) = default;
  };

  struct Flight {
    data::TransferEngine::TransferId transfer_id = 0;
    /// Source replicas feeding the transfer, one stripe each, each
    /// pinned for the flight's duration.
    std::vector<std::string> src_zones;
    double reserved_bytes = 0.0;
    bool prefetch = false;  ///< counts against the prefetch budget
    /// Tenant whose quota/weights the flight rides; pins, reservation
    /// and the committed replica are all charged to (and released with)
    /// this value. Empty for untenanted flights.
    std::string tenant;
    std::vector<Waiter> waiters;
  };

  using FlightKey = std::pair<std::string, std::string>;

  /// Launches the transfer of `name` into `dst_zone` (one stripe per
  /// source replica) and registers the flight.
  /// `sources` must be non-empty and reserve() must have succeeded.
  Flight& launch_flight(const FlightKey& key,
                        std::vector<std::string> sources, double bytes,
                        bool prefetch, const std::string& tenant);

  using Flights = std::map<FlightKey, Flight>;

  /// Cancels one waiterless prefetch flight into `zone`, returning its
  /// reservation to the store (demand staging outranks speculation).
  /// False when none is left to reclaim.
  bool reclaim_one_prefetch(const std::string& zone);

  /// Starts one target of call `waiter.ticket`: its outcome when it
  /// resolves at once, or nullopt when `waiter` now waits on a flight.
  std::optional<bool> admit(const StageTarget& target,
                            const std::string& tenant, Waiter waiter);

  /// Target `target` of call `ticket` resolved. No-op once the call is
  /// cancelled or has failed.
  void settle(StageTicket ticket, std::size_t target, bool ok);

  /// Takes the call's targets off the flights they wait on, in target
  /// order, cancelling each demand transfer left with no waiter.
  void withdraw(StageTicket ticket, const std::vector<StageTarget>& targets);

  void on_flight_done(const FlightKey& key, bool ok);

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
  std::unordered_map<StageTicket, Call> calls_;
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
