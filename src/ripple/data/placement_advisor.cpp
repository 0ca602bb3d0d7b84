#include "ripple/data/placement_advisor.hpp"

#include <algorithm>

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
  if (engine_ == nullptr) return bytes_to_move(datasets, zone);
  double seconds = 0.0;
  for (const auto& name : datasets) {
    const Dataset* ds = catalog_.find(name);
    if (ds == nullptr || ds->zones.count(zone) != 0) continue;
    // Achievable rate if the transfer joined now: the sum over the
    // dataset's replica links of TransferEngine::newcomer_rate — the
    // exact quantity the striped split hands each stripe at admission,
    // so the estimate and the actual schedule share one formula.
    double rate = 0.0;
    for (const auto& src : ds->zones) {
      rate += engine_->newcomer_rate(src, zone);
    }
    if (rate <= 0.0) continue;  // no usable replica: produced in place
    seconds += ds->bytes / rate;
  }
  return seconds;
}

double PlacementAdvisor::score(const std::vector<std::string>& datasets,
                               const std::string& zone,
                               const std::string& pilot_uid) const {
  double total = stage_in_time(datasets, zone);
  // The queue penalty is in seconds; without an engine stage_in_time
  // degrades to raw bytes, and adding seconds to bytes would drown the
  // penalty — skip it so the bytes-only mode stays purely data-driven.
  if (engine_ != nullptr && scheduler_ != nullptr) {
    total += kQueuePenalty *
             static_cast<double>(scheduler_->queue_length(pilot_uid));
  }
  return total;
}

std::vector<core::Pilot*> PlacementAdvisor::rank(
    std::vector<core::Pilot*> candidates,
    const std::vector<std::string>& datasets) const {
  std::vector<std::pair<double, core::Pilot*>> scored;
  scored.reserve(candidates.size());
  for (core::Pilot* pilot : candidates) {
    scored.emplace_back(
        score(datasets, pilot->cluster().name(), pilot->uid()), pilot);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (std::size_t i = 0; i < scored.size(); ++i) {
    candidates[i] = scored[i].second;
  }
  return candidates;
}

core::Pilot* PlacementAdvisor::best(
    const std::vector<core::Pilot*>& candidates,
    const std::vector<std::string>& datasets) const {
  if (candidates.empty()) return nullptr;
  return rank(candidates, datasets).front();
}

}  // namespace ripple::data
