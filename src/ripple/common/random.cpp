#include "ripple/common/random.hpp"

#include <algorithm>
#include <cmath>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::common {

namespace {

/// FNV-1a, used to mix fork tags into child seeds.
std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// splitmix64 finalizer: decorrelates derived seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng::Rng(const Rng& other)
    : seed_(other.seed_),
      engine_(other.engine_
                  ? std::make_unique<std::mt19937_64>(*other.engine_)
                  : nullptr) {}

Rng& Rng::operator=(const Rng& other) {
  if (this != &other) *this = Rng(other);
  return *this;
}

std::mt19937_64& Rng::engine() {
  if (!engine_) engine_ = std::make_unique<std::mt19937_64>(mix(seed_));
  return *engine_;
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine());
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ensure(lo <= hi, Errc::invalid_argument, "uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine());
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine());
}

double Rng::lognormal(double median, double sigma) {
  ensure(median > 0.0, Errc::invalid_argument, "lognormal median must be > 0");
  std::lognormal_distribution<double> dist(std::log(median), sigma);
  return dist(engine());
}

double Rng::exponential(double mean) {
  ensure(mean > 0.0, Errc::invalid_argument, "exponential mean must be > 0");
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine());
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform(0.0, 1.0) < p;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  ensure(!weights.empty(), Errc::invalid_argument,
         "weighted_index: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    ensure(w >= 0.0, Errc::invalid_argument,
           "weighted_index: negative weight");
    total += w;
  }
  ensure(total > 0.0, Errc::invalid_argument, "weighted_index: zero total");
  double pick = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::string_view tag) const {
  return Rng(mix(seed_ ^ hash_tag(tag)));
}

const char* to_string(Distribution::Kind kind) noexcept {
  switch (kind) {
    case Distribution::Kind::constant: return "constant";
    case Distribution::Kind::uniform: return "uniform";
    case Distribution::Kind::normal: return "normal";
    case Distribution::Kind::lognormal: return "lognormal";
    case Distribution::Kind::exponential: return "exponential";
  }
  return "?";
}

Distribution Distribution::constant(double value) {
  Distribution d;
  d.kind_ = Kind::constant;
  d.a_ = value;
  return d;
}

Distribution Distribution::uniform(double lo, double hi) {
  ensure(lo <= hi, Errc::invalid_argument, "uniform distribution: lo > hi");
  Distribution d;
  d.kind_ = Kind::uniform;
  d.a_ = lo;
  d.b_ = hi;
  return d;
}

Distribution Distribution::normal(double mean, double stddev, double floor) {
  ensure(stddev >= 0.0, Errc::invalid_argument,
         "normal distribution: negative stddev");
  Distribution d;
  d.kind_ = Kind::normal;
  d.a_ = mean;
  d.b_ = stddev;
  d.floor_ = floor;
  return d;
}

Distribution Distribution::lognormal(double median, double sigma,
                                     double floor) {
  ensure(median > 0.0, Errc::invalid_argument,
         "lognormal distribution: median must be > 0");
  Distribution d;
  d.kind_ = Kind::lognormal;
  d.a_ = median;
  d.b_ = sigma;
  d.floor_ = floor;
  return d;
}

Distribution Distribution::exponential(double mean, double floor) {
  ensure(mean > 0.0, Errc::invalid_argument,
         "exponential distribution: mean must be > 0");
  Distribution d;
  d.kind_ = Kind::exponential;
  d.a_ = mean;
  d.floor_ = floor;
  return d;
}

Distribution Distribution::from_json(const json::Value& spec) {
  if (spec.is_number()) return constant(spec.as_double());
  const std::string kind = spec.at("kind").as_string();
  if (kind == "constant") return constant(spec.at("value").as_double());
  if (kind == "uniform") {
    return uniform(spec.at("lo").as_double(), spec.at("hi").as_double());
  }
  if (kind == "normal") {
    return normal(spec.at("mean").as_double(), spec.at("stddev").as_double(),
                  spec.get_or("floor", 0.0).as_double());
  }
  if (kind == "lognormal") {
    return lognormal(spec.at("median").as_double(),
                     spec.at("sigma").as_double(),
                     spec.get_or("floor", 0.0).as_double());
  }
  if (kind == "exponential") {
    return exponential(spec.at("mean").as_double(),
                       spec.get_or("floor", 0.0).as_double());
  }
  raise(Errc::parse_error,
        strutil::cat("unknown distribution kind '", kind, "'"));
}

json::Value Distribution::to_json() const {
  json::Value out = json::Value::object();
  out.set("kind", to_string(kind_));
  switch (kind_) {
    case Kind::constant: out.set("value", a_); break;
    case Kind::uniform:
      out.set("lo", a_);
      out.set("hi", b_);
      break;
    case Kind::normal:
      out.set("mean", a_);
      out.set("stddev", b_);
      out.set("floor", floor_);
      break;
    case Kind::lognormal:
      out.set("median", a_);
      out.set("sigma", b_);
      out.set("floor", floor_);
      break;
    case Kind::exponential:
      out.set("mean", a_);
      out.set("floor", floor_);
      break;
  }
  return out;
}

double Distribution::sample(Rng& rng) const {
  double value = 0.0;
  switch (kind_) {
    case Kind::constant: value = a_; break;
    case Kind::uniform: value = rng.uniform(a_, b_); break;
    case Kind::normal: value = rng.normal(a_, b_); break;
    case Kind::lognormal: value = rng.lognormal(a_, b_); break;
    case Kind::exponential: value = rng.exponential(a_); break;
  }
  return std::max(value, floor_);
}

double Distribution::mean() const {
  switch (kind_) {
    case Kind::constant: return a_;
    case Kind::uniform: return (a_ + b_) / 2.0;
    case Kind::normal: return a_;
    case Kind::lognormal: return a_ * std::exp(b_ * b_ / 2.0);
    case Kind::exponential: return a_;
  }
  return 0.0;
}

Distribution Distribution::scaled(double factor) const {
  ensure(factor > 0.0, Errc::invalid_argument,
         "distribution scale factor must be > 0");
  Distribution d = *this;
  switch (kind_) {
    case Kind::constant: d.a_ *= factor; break;
    case Kind::uniform:
      d.a_ *= factor;
      d.b_ *= factor;
      break;
    case Kind::normal:
      d.a_ *= factor;
      d.b_ *= factor;
      break;
    case Kind::lognormal: d.a_ *= factor; break;
    case Kind::exponential: d.a_ *= factor; break;
  }
  d.floor_ *= factor;
  return d;
}

}  // namespace ripple::common
