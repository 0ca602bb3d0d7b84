#include "ripple/data/placement_advisor.hpp"

#include "ripple/core/entities.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/platform/cluster.hpp"

namespace ripple::data {

namespace {
/// Seconds of estimated compute wait per already-queued request.
constexpr double kQueuePenalty = 0.5;
}  // namespace

double PlacementAdvisor::bytes_to_move(
    const std::vector<std::string>& datasets,
    const std::string& zone) const {
  double bytes = 0.0;
  for (const auto& name : datasets) {
    const Dataset* ds = catalog_.find(name);
    if (ds == nullptr || ds->zones.count(zone) != 0) continue;
    bytes += ds->bytes;
  }
  return bytes;
}

double PlacementAdvisor::stage_in_time(
    const std::vector<std::string>& datasets,
    const std::string& zone) const {
  double seconds = 0.0;
  for (const auto& name : datasets) {
    if (const Dataset* ds = catalog_.find(name)) {
      seconds += stage_in_seconds(*ds, zone);
    }
  }
  return seconds;
}

double PlacementAdvisor::stage_in_seconds(const Dataset& ds,
                                          const std::string& zone) const {
  if (ds.zones.count(zone) != 0) return 0.0;
  if (engine_ == nullptr) return ds.bytes;
  // Achievable rate if the transfer joined now: the sum over the
  // dataset's replica links of TransferEngine::newcomer_rate — the
  // exact quantity the striped split hands each stripe at admission,
  // so the estimate and the actual schedule share one formula.
  double rate = 0.0;
  for (const auto& src : ds.zones) {
    rate += engine_->newcomer_rate(src, zone);
  }
  if (rate <= 0.0) return 0.0;  // no usable replica: produced in place
  return ds.bytes / rate;
}

core::Pilot* PlacementAdvisor::best(
    const std::vector<core::Pilot*>& candidates,
    const std::vector<std::string>& datasets) const {
  // Resolve every name once; each candidate prices the same datasets.
  std::vector<const Dataset*> resolved;
  resolved.reserve(datasets.size());
  for (const auto& name : datasets) {
    if (const Dataset* ds = catalog_.find(name)) resolved.push_back(ds);
  }
  core::Pilot* cheapest = nullptr;
  double cheapest_score = 0.0;
  for (core::Pilot* pilot : candidates) {
    const std::string& zone = pilot->cluster().name();
    double score = 0.0;
    for (const Dataset* ds : resolved) score += stage_in_seconds(*ds, zone);
    // The queue penalty is in seconds; without an engine the stage-in
    // estimate degrades to raw bytes, and adding seconds to bytes would
    // drown the penalty — skip it so the bytes-only mode stays purely
    // data-driven.
    if (engine_ != nullptr && scheduler_ != nullptr) {
      score += kQueuePenalty *
               static_cast<double>(scheduler_->queue_length(pilot->uid()));
    }
    // Strictly cheaper only: ties keep the earlier candidate.
    if (cheapest == nullptr || score < cheapest_score) {
      cheapest = pilot;
      cheapest_score = score;
    }
  }
  return cheapest;
}

}  // namespace ripple::data
