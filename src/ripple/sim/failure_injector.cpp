#include "ripple/sim/failure_injector.hpp"

#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::sim {

const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::node_crash: return "node_crash";
    case FailureKind::node_restore: return "node_restore";
    case FailureKind::pilot_preempt: return "pilot_preempt";
    case FailureKind::link_down: return "link_down";
    case FailureKind::link_up: return "link_up";
    case FailureKind::slow_node: return "slow_node";
    case FailureKind::node_normal: return "node_normal";
    case FailureKind::store_crash: return "store_crash";
    case FailureKind::store_restore: return "store_restore";
  }
  return "?";
}

std::optional<FailureKind> recovery_of(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::node_crash: return FailureKind::node_restore;
    case FailureKind::link_down: return FailureKind::link_up;
    case FailureKind::slow_node: return FailureKind::node_normal;
    case FailureKind::store_crash: return FailureKind::store_restore;
    default: return std::nullopt;
  }
}

FailureInjector::FailureInjector(EventLoop& loop, common::Rng rng)
    : loop_(loop), rng_(std::move(rng)) {}

void FailureInjector::on(FailureKind kind, Handler handler) {
  handlers_[kind] = std::move(handler);
}

void FailureInjector::arm(FailureKind kind, std::vector<std::string> targets,
                          Schedule schedule) {
  ensure(!targets.empty(), Errc::invalid_argument,
         "failure stream needs targets");
  ensure(schedule.mean_interarrival > 0.0, Errc::invalid_argument,
         "failure stream needs a positive mean inter-arrival");
  auto& stream = streams_[kind];
  if (stream.next.valid()) loop_.cancel(stream.next);
  stream = Stream{};
  stream.schedule = schedule;
  stream.targets = std::move(targets);
  for (std::size_t i = 0; i < stream.targets.size(); ++i) {
    stream.up.insert(stream.up.end(), i);
  }
  // Per-kind fork: arming order and other components' draws do not
  // perturb this stream's samples.
  stream.rng = rng_.fork(to_string(kind));
  schedule_next(kind);
}

void FailureInjector::inject_at(SimTime when, FailureKind kind,
                                std::string target, double magnitude) {
  loop_.call_at(when, [this, kind, target = std::move(target), magnitude] {
    dispatch(kind, target, magnitude);
  });
}

void FailureInjector::schedule_next(FailureKind kind) {
  auto& stream = streams_.at(kind);
  stream.next = {};
  if (stream.up.empty()) return;
  if (stream.fired >= stream.schedule.max_events) return;
  const SimTime base = std::max(loop_.now(), stream.schedule.start);
  const SimTime when =
      base + stream.rng.exponential(stream.schedule.mean_interarrival);
  if (when > stream.schedule.horizon) return;
  stream.next = loop_.call_at(when, [this, kind] { fire(kind); });
}

void FailureInjector::fire(FailureKind kind) {
  auto& stream = streams_.at(kind);
  stream.next = {};
  if (!stream.up.empty()) {
    auto it = stream.up.begin();
    std::advance(it, stream.rng.uniform_int(
                         0, static_cast<std::int64_t>(stream.up.size()) - 1));
    const std::size_t index = *it;
    stream.up.erase(it);
    ++stream.fired;
    const double magnitude = stream.schedule.magnitude.sample(stream.rng);
    dispatch(kind, stream.targets[index], magnitude);
    const auto recovery = recovery_of(kind);
    if (recovery.has_value() && stream.schedule.mean_time_to_repair > 0.0) {
      const SimTime back =
          loop_.now() +
          stream.rng.exponential(stream.schedule.mean_time_to_repair);
      loop_.call_at(back, [this, kind, index] {
        auto& s = streams_.at(kind);
        s.up.insert(index);
        dispatch(*recovery_of(kind), s.targets[index], 0.0);
      });
    }
  }
  schedule_next(kind);
}

void FailureInjector::dispatch(FailureKind kind, const std::string& target,
                               double magnitude) {
  FailureEvent event{loop_.now(), kind, target, magnitude};
  const std::string line =
      strutil::cat(strutil::format_fixed(event.time, 6), " ", to_string(kind),
                   " ", target, " ", strutil::format_fixed(magnitude, 3));
  log_.push_back(line);
  log_hash_ = common::fnv1a(log_hash_, line);
  ++injected_;
  const auto it = handlers_.find(kind);
  if (it != handlers_.end() && it->second) it->second(event);
}

}  // namespace ripple::sim
