#include "ripple/common/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "ripple/common/error.hpp"

namespace ripple::common {

void OnlineStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
  stats_.add(x);
}

void Summary::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  ensure(!sorted.empty(), Errc::invalid_state,
         "quantile of an empty sample set");
  ensure(q >= 0.0 && q <= 1.0, Errc::invalid_argument,
         "quantile q must be in [0, 1]");
  if (sorted.size() == 1) return sorted.front();
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(below);
  if (below + 1 >= sorted.size()) return sorted.back();
  return sorted[below] * (1.0 - fraction) + sorted[below + 1] * fraction;
}

double Summary::quantile(double q) const {
  ensure_sorted();
  return quantile_sorted(sorted_, q);
}

json::Value Summary::to_json() const {
  json::Value out = json::Value::object();
  out.set("count", static_cast<std::int64_t>(count()));
  if (!empty()) {
    out.set("mean", mean());
    out.set("std", stddev());
    out.set("min", min());
    out.set("p50", median());
    out.set("p95", p95());
    out.set("max", max());
  }
  return out;
}

}  // namespace ripple::common
