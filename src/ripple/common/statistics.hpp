#pragma once

/// \file statistics.hpp
/// Streaming and sample-based statistics used by the metrics layer.
///
/// The paper reports averages, distributions, outliers and long tails of
/// its BT/RT/IT metrics; these classes compute exactly those summaries.

#include <cstddef>
#include <limits>
#include <vector>

#include "ripple/common/json.hpp"

namespace ripple::common {

/// Linear-interpolation quantile of an already-sorted vector — the one
/// definition of the quantile convention, shared by Summary and the
/// metrics layer's windowed quantiles so the two can never diverge.
/// Throws when `sorted` is empty or q is outside [0, 1].
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// Numerically stable (Welford) streaming moments: O(1) memory.
class OnlineStats {
 public:
  void add(double x);

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * count_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; provides quantiles and tail statistics.
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  [[nodiscard]] double sum() const noexcept { return stats_.sum(); }

  /// Linear-interpolation quantile, q in [0, 1]. Throws when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  /// {"count":..,"mean":..,"std":..,"min":..,"p50":..,"p95":..,"max":..}
  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // lazily sorted cache
  mutable bool sorted_valid_ = false;
  OnlineStats stats_;

  void ensure_sorted() const;
};

}  // namespace ripple::common
