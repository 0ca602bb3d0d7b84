#pragma once

/// \file random.hpp
/// Deterministic random number generation and duration distributions.
///
/// Every stochastic quantity in Ripple (network latency, model load time,
/// launch overhead, token counts, ...) is drawn from a named Distribution
/// through an explicitly seeded Rng, so each simulation run is exactly
/// reproducible. Rng::fork derives independent child streams from stable
/// string tags, which keeps component behaviour independent of the order
/// in which other components consume randomness.
///
/// An Rng seeds its engine on the first draw: a stream that is only
/// forked, or never drawn from at all, costs a seed and no engine.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ripple/common/json.hpp"

namespace ripple::common {

/// A seeded wrapper over mt19937_64 with convenience samplers. The
/// engine (2.5 KB, seeded from 312 words) is allocated on the first
/// draw; a copy continues the original's sequence from where it stands.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) noexcept : seed_(seed) {}
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Log-normal parameterized by its median and shape sigma.
  [[nodiscard]] double lognormal(double median, double sigma);

  /// Exponential with the given mean (not rate).
  [[nodiscard]] double exponential(double mean);

  /// True with probability p.
  [[nodiscard]] bool chance(double p);

  /// Index drawn proportionally to non-negative weights.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator from this one and a stable
  /// tag. Reads only the seed, so it never seeds this stream's engine.
  [[nodiscard]] Rng fork(std::string_view tag) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// The engine, seeded from seed_ on first use.
  std::mt19937_64& engine();

  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> engine_;
};

/// A small algebra of duration distributions, parseable from JSON config.
/// All samples are clamped at `floor` (default 0) because durations,
/// latencies and sizes must stay non-negative.
class Distribution {
 public:
  enum class Kind { constant, uniform, normal, lognormal, exponential };

  Distribution() = default;

  [[nodiscard]] static Distribution constant(double value);
  [[nodiscard]] static Distribution uniform(double lo, double hi);
  [[nodiscard]] static Distribution normal(double mean, double stddev,
                                           double floor = 0.0);
  [[nodiscard]] static Distribution lognormal(double median, double sigma,
                                              double floor = 0.0);
  [[nodiscard]] static Distribution exponential(double mean,
                                                double floor = 0.0);

  /// Parses {"kind":"normal","mean":1.0,"stddev":0.1} style specs.
  [[nodiscard]] static Distribution from_json(const json::Value& spec);

  [[nodiscard]] json::Value to_json() const;

  [[nodiscard]] double sample(Rng& rng) const;

  /// Analytic mean of the distribution (ignoring the floor clamp).
  [[nodiscard]] double mean() const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// Returns a copy of this distribution scaled by `factor` (> 0).
  [[nodiscard]] Distribution scaled(double factor) const;

 private:
  Kind kind_ = Kind::constant;
  double a_ = 0.0;  ///< constant value | lo | mean | median | mean
  double b_ = 0.0;  ///< unused | hi | stddev | sigma | unused
  double floor_ = 0.0;
};

[[nodiscard]] const char* to_string(Distribution::Kind kind) noexcept;

}  // namespace ripple::common
