#include "ripple/wf/hyperopt.hpp"

#include <algorithm>
#include <cmath>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::wf {

ParamSpec ParamSpec::real(std::string name, double lo, double hi) {
  ensure(lo < hi, Errc::invalid_argument, "real param: lo must be < hi");
  ParamSpec p;
  p.name = std::move(name);
  p.kind = Kind::real;
  p.lo = lo;
  p.hi = hi;
  return p;
}

ParamSpec ParamSpec::log_real(std::string name, double lo, double hi) {
  ensure(lo > 0.0 && lo < hi, Errc::invalid_argument,
         "log_real param: need 0 < lo < hi");
  ParamSpec p;
  p.name = std::move(name);
  p.kind = Kind::log_real;
  p.lo = lo;
  p.hi = hi;
  return p;
}

ParamSpec ParamSpec::integer(std::string name, std::int64_t lo,
                             std::int64_t hi) {
  ensure(lo <= hi, Errc::invalid_argument, "integer param: lo must be <= hi");
  ParamSpec p;
  p.name = std::move(name);
  p.kind = Kind::integer;
  p.lo = static_cast<double>(lo);
  p.hi = static_cast<double>(hi);
  return p;
}

ParamSpec ParamSpec::categorical(std::string name,
                                 std::vector<std::string> choices) {
  ensure(!choices.empty(), Errc::invalid_argument,
         "categorical param needs choices");
  ParamSpec p;
  p.name = std::move(name);
  p.kind = Kind::categorical;
  p.choices = std::move(choices);
  return p;
}

json::Value ParamSpec::sample(common::Rng& rng) const {
  switch (kind) {
    case Kind::real: return json::Value(rng.uniform(lo, hi));
    case Kind::log_real:
      return json::Value(
          std::exp(rng.uniform(std::log(lo), std::log(hi))));
    case Kind::integer:
      return json::Value(rng.uniform_int(static_cast<std::int64_t>(lo),
                                         static_cast<std::int64_t>(hi)));
    case Kind::categorical: {
      const auto index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(choices.size()) - 1));
      return json::Value(choices[index]);
    }
  }
  return json::Value();
}

namespace {

json::Value sample_params(const std::vector<ParamSpec>& space,
                          common::Rng& rng) {
  json::Value params = json::Value::object();
  for (const auto& spec : space) params.set(spec.name, spec.sample(rng));
  return params;
}

}  // namespace

// ---------------------------------------------------------------------------
// RandomSearch
// ---------------------------------------------------------------------------

RandomSearch::RandomSearch(std::vector<ParamSpec> space, common::Rng rng)
    : space_(std::move(space)), rng_(rng) {
  ensure(!space_.empty(), Errc::invalid_argument,
         "search space must not be empty");
}

Trial RandomSearch::suggest() {
  Trial trial;
  trial.id = trials_.size();
  trial.params = sample_params(space_, rng_);
  trials_.push_back(trial);
  return trial;
}

void RandomSearch::report(std::size_t trial_id, double value) {
  ensure(trial_id < trials_.size(), Errc::not_found, "unknown trial ",
         trial_id);
  Trial& trial = trials_[trial_id];
  ensure(!trial.completed, Errc::invalid_state, "trial ", trial_id,
         " already reported");
  trial.value = value;
  trial.completed = true;
}

const Trial& RandomSearch::best() const {
  const Trial* best = nullptr;
  for (const auto& trial : trials_) {
    if (!trial.completed) continue;
    if (best == nullptr || trial.value < best->value) best = &trial;
  }
  ensure(best != nullptr, Errc::invalid_state, "no completed trials");
  return *best;
}

std::size_t RandomSearch::completed() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(trials_.begin(), trials_.end(),
                    [](const Trial& t) { return t.completed; }));
}

// ---------------------------------------------------------------------------
// SuccessiveHalving
// ---------------------------------------------------------------------------

SuccessiveHalving::SuccessiveHalving(std::vector<ParamSpec> space,
                                     common::Rng rng, std::size_t initial,
                                     std::size_t eta)
    : space_(std::move(space)), rng_(rng), eta_(eta) {
  ensure(!space_.empty(), Errc::invalid_argument,
         "search space must not be empty");
  ensure(initial > 0, Errc::invalid_argument,
         "successive halving needs >= 1 initial config");
  ensure(eta_ >= 2, Errc::invalid_argument, "eta must be >= 2");
  current_.reserve(initial);
  for (std::size_t i = 0; i < initial; ++i) {
    Trial trial;
    trial.id = next_id_++;
    trial.params = sample_params(space_, rng_);
    trial.rung = 0;
    current_.push_back(std::move(trial));
  }
}

std::vector<Trial> SuccessiveHalving::pending() const {
  std::vector<Trial> out;
  for (const auto& trial : current_) {
    if (!trial.completed) out.push_back(trial);
  }
  return out;
}

void SuccessiveHalving::report(std::size_t trial_id, double value) {
  for (auto& trial : current_) {
    if (trial.id == trial_id) {
      ensure(!trial.completed, Errc::invalid_state, "trial ", trial_id,
             " already reported");
      trial.value = value;
      trial.completed = true;
      return;
    }
  }
  raise(Errc::not_found,
        strutil::cat("trial ", trial_id, " not in the current rung"));
}

bool SuccessiveHalving::rung_complete() const {
  return std::all_of(current_.begin(), current_.end(),
                     [](const Trial& t) { return t.completed; });
}

std::size_t SuccessiveHalving::advance_rung() {
  ensure(rung_complete(), Errc::invalid_state,
         "advance_rung before all trials reported");
  ensure(!finished_, Errc::invalid_state, "search already finished");

  std::sort(current_.begin(), current_.end(),
            [](const Trial& a, const Trial& b) { return a.value < b.value; });
  for (auto& trial : history_) (void)trial;
  const std::size_t survivors =
      std::max<std::size_t>(1, current_.size() / eta_);
  for (std::size_t i = survivors; i < current_.size(); ++i) {
    current_[i].pruned = true;
  }
  history_.insert(history_.end(), current_.begin(), current_.end());

  if (current_.size() <= 1) {
    finished_ = true;
    current_.clear();
    return 0;
  }
  std::vector<Trial> promoted;
  promoted.reserve(survivors);
  ++rung_;
  for (std::size_t i = 0; i < survivors; ++i) {
    Trial next;
    next.id = next_id_++;
    next.params = current_[i].params;
    next.rung = rung_;
    promoted.push_back(std::move(next));
  }
  current_ = std::move(promoted);
  return current_.size();
}

const Trial& SuccessiveHalving::best() const {
  const Trial* best = nullptr;
  for (const auto& trial : history_) {
    if (!trial.completed) continue;
    if (best == nullptr || trial.value < best->value) best = &trial;
  }
  ensure(best != nullptr, Errc::invalid_state, "no completed trials");
  return *best;
}

}  // namespace ripple::wf
