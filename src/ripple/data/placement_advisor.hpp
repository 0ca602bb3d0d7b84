#pragma once

/// \file placement_advisor.hpp
/// Contention-aware placement: pick the candidate pilot whose zone has
/// the lowest estimated *time* to start computing there — stage-in time
/// at the currently achievable transfer rate plus a scheduler
/// queue-depth penalty — so data movement trades off against compute
/// wait explicitly.
///
/// The scheduler places within a pilot; *which* pilot a task goes to
/// was previously the caller's guess. The advisor closes that gap. The
/// catalog-only constructor keeps the original bytes-that-must-move
/// metric (no live link or queue state); wiring a TransferEngine makes
/// the score rate-aware — a dataset replicated in several zones stripes
/// across its links, each contributing the fair share it would get if
/// the transfer joined now — and wiring a Scheduler adds the queue
/// penalty. Ties go to the earlier candidate, so placement is
/// deterministic and data-blind callers (everything in one zone, idle
/// queues) keep their existing placement.

#include <string>
#include <vector>

#include "ripple/data/catalog.hpp"
#include "ripple/data/transfer_engine.hpp"

namespace ripple::core {
class Pilot;
class Scheduler;
}  // namespace ripple::core

namespace ripple::data {

class PlacementAdvisor {
 public:
  /// Bytes-only scoring (no live contention state).
  explicit PlacementAdvisor(const ReplicaCatalog& catalog)
      : catalog_(catalog) {}

  /// Contention-aware scoring: `engine` supplies live per-link rates
  /// (striped-source stage-in time), `scheduler` the queue-depth
  /// penalty. Either may be null; absent state contributes nothing.
  PlacementAdvisor(const ReplicaCatalog& catalog,
                   const TransferEngine* engine,
                   const core::Scheduler* scheduler = nullptr)
      : catalog_(catalog), engine_(engine), scheduler_(scheduler) {}

  /// Bytes that must move into `zone` before `datasets` are all local.
  /// Unknown datasets cost nothing (they will be produced in place).
  [[nodiscard]] double bytes_to_move(
      const std::vector<std::string>& datasets,
      const std::string& zone) const;

  /// Estimated seconds to stage `datasets` into `zone` at the rate
  /// achievable right now: each missing dataset stripes across its
  /// replica links, each contributing
  /// TransferEngine::newcomer_rate(src, zone) — bandwidth discounted
  /// by the link's active and queued transfers. Falls back to bytes
  /// when no engine is wired (so placement still orders by footprint).
  [[nodiscard]] double stage_in_time(
      const std::vector<std::string>& datasets,
      const std::string& zone) const;

  /// The candidate whose zone is cheapest to start computing in, the
  /// first one on ties; null when `candidates` is empty. A candidate's
  /// score is stage_in_time() into its cluster's zone, each dataset
  /// resolved once per call, plus 0.5 s of estimated compute wait per
  /// request already queued on the pilot. The queue penalty (seconds)
  /// applies only when both engine and scheduler are wired — against
  /// the bytes-based fallback it would be unit-nonsense noise.
  [[nodiscard]] core::Pilot* best(
      const std::vector<core::Pilot*>& candidates,
      const std::vector<std::string>& datasets) const;

 private:
  /// One dataset's share of stage_in_time(): 0 when resident in `zone`.
  [[nodiscard]] double stage_in_seconds(const Dataset& ds,
                                        const std::string& zone) const;

  const ReplicaCatalog& catalog_;
  const TransferEngine* engine_ = nullptr;
  const core::Scheduler* scheduler_ = nullptr;
};

}  // namespace ripple::data
