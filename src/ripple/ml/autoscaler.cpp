#include "ripple/ml/autoscaler.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::ml {

Autoscaler::Autoscaler(core::Session& session, core::Pilot& pilot,
                       core::ServiceDescription replica,
                       AutoscalerConfig config)
    : session_(session),
      pilot_(pilot),
      replica_(std::move(replica)),
      config_(config),
      log_(session.runtime().make_logger(
          strutil::cat("autoscaler.", replica_.name))) {
  ensure(config_.min_replicas >= 1, Errc::invalid_argument,
         "autoscaler needs min_replicas >= 1");
  ensure(config_.max_replicas >= config_.min_replicas,
         Errc::invalid_argument,
         "autoscaler needs max_replicas >= min_replicas");
  ensure(config_.poll_interval > 0.0, Errc::invalid_argument,
         "autoscaler needs poll_interval > 0");
  ensure(config_.scale_up_outstanding > config_.scale_down_outstanding,
         Errc::invalid_argument,
         "autoscaler thresholds must satisfy up > down");
  if (config_.target_p95 > 0.0) {
    ensure(config_.headroom_fraction > 0.0 &&
               config_.headroom_fraction < 1.0,
           Errc::invalid_argument,
           "SLO autoscaler needs headroom_fraction in (0, 1)");
    ensure(config_.down_sustain >= 1, Errc::invalid_argument,
           "SLO autoscaler needs down_sustain >= 1");
  }
}

Autoscaler::~Autoscaler() {
  // Replicas (if any) outlive the autoscaler and must be stopped
  // through the ServiceManager; the poll timer must not.
  if (poll_timer_.valid()) {
    session_.loop().cancel(poll_timer_);
    poll_timer_ = {};
  }
}

void Autoscaler::start(std::function<void(bool)> on_ready) {
  ensure(!started_, Errc::invalid_state, "autoscaler already started");
  started_ = true;
  std::vector<core::ServiceDescription> descs(config_.min_replicas,
                                              replica_);
  std::vector<std::string> uids =
      session_.services().submit_all(pilot_, std::move(descs));
  replicas_.insert(replicas_.end(), uids.begin(), uids.end());
  session_.services().when_ready(
      uids, [this, alive = std::weak_ptr<char>(alive_),
             on_ready = std::move(on_ready)](bool ok) {
        // The autoscaler may be destroyed while the initial replicas
        // bootstrap; its callbacks die with it.
        if (alive.expired()) return;
        // Poll regardless of the bootstrap outcome: the repair path in
        // poll() is what rebuilds a pool whose replicas all failed.
        if (!stopping_) schedule_poll();
        if (on_ready) on_ready(ok);
      });
}

void Autoscaler::stop(std::function<void()> on_stopped) {
  stopping_ = true;
  if (poll_timer_.valid()) {
    session_.loop().cancel(poll_timer_);
    poll_timer_ = {};
  }
  std::vector<std::string> to_stop;
  for (const auto& uid : replicas_) {
    if (session_.services().exists(uid) &&
        !core::is_terminal(session_.services().get(uid).state())) {
      to_stop.push_back(uid);
    }
  }
  if (to_stop.empty()) {
    if (on_stopped) session_.loop().post(std::move(on_stopped));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(to_stop.size());
  auto shared_callback =
      std::make_shared<std::function<void()>>(std::move(on_stopped));
  for (const auto& uid : to_stop) {
    session_.services().stop(uid, [remaining, shared_callback] {
      if (--(*remaining) == 0 && *shared_callback) (*shared_callback)();
    });
  }
}

std::vector<std::string> Autoscaler::endpoints() const {
  std::vector<std::string> out;
  for (const auto& uid : replicas_) {
    if (!session_.services().exists(uid)) continue;
    const core::Service& service = session_.services().get(uid);
    if (service.state() == core::ServiceState::running) {
      out.push_back(service.endpoint());
    }
  }
  return out;
}

std::size_t Autoscaler::active_replicas() const {
  // The group name is unique to this autoscaler, so the
  // ServiceManager's name-filtered aggregate is exactly our replicas.
  return session_.services().count_active(replica_.name);
}

std::size_t Autoscaler::running_replicas() const {
  std::size_t n = 0;
  for (const auto& uid : replicas_) {
    if (session_.services().exists(uid) &&
        session_.services().get(uid).state() ==
            core::ServiceState::running) {
      ++n;
    }
  }
  return n;
}

void Autoscaler::schedule_poll() {
  if (stopping_) return;
  poll_timer_ = session_.loop().call_after(config_.poll_interval, [this] {
    poll_timer_ = {};
    poll();
  });
}

void Autoscaler::prune_terminal_replicas() {
  // Terminal uids are dead weight: endpoints()/running_replicas()/
  // scale_down_victim() scan replicas_ every tick, so a pool that
  // repeatedly crash-repairs would otherwise degrade O(history).
  replicas_.erase(
      std::remove_if(replicas_.begin(), replicas_.end(),
                     [this](const std::string& uid) {
                       return !session_.services().exists(uid) ||
                              core::is_terminal(
                                  session_.services().get(uid).state());
                     }),
      replicas_.end());
}

void Autoscaler::poll() {
  if (stopping_) return;
  prune_terminal_replicas();
  const std::size_t running = running_replicas();
  const std::size_t active = active_replicas();
  if (running == 0) {
    if (active == 0 &&
        session_.now() - last_action_ >= config_.cooldown) {
      // Every replica reached a terminal state (liveness failures,
      // crashes): without repair the group would idle at zero forever
      // while clients burn retries against a dead pool.
      repair_pool();
    }
    // Otherwise the pool is still bootstrapping: judge again next tick
    // rather than piling more replicas onto a cold pool.
    schedule_poll();
    return;
  }
  if (config_.target_p95 > 0.0) {
    poll_slo(running, active);
    schedule_poll();
    return;
  }
  // The group's queue-depth signal comes from the ServiceManager's
  // name-filtered aggregate (the replica name identifies the group, so
  // it must not be shared with unrelated services).
  const std::size_t outstanding =
      session_.services().total_outstanding(replica_.name);
  const double per_replica =
      static_cast<double>(outstanding) / static_cast<double>(running);
  const bool cooled =
      session_.now() - last_action_ >= config_.cooldown;
  if (cooled && per_replica >= config_.scale_up_outstanding &&
      active < config_.max_replicas) {
    scale_up(outstanding);
  } else if (cooled && per_replica <= config_.scale_down_outstanding &&
             running > config_.min_replicas && active == running) {
    // `active == running` keeps the pool stable while a replica boots.
    scale_down(outstanding);
  }
  schedule_poll();
}

double Autoscaler::window_p95() const {
  return session_.services().window_latency_quantile(replica_.name, 0.95);
}

void Autoscaler::poll_slo(std::size_t running, std::size_t active) {
  const double p95 = window_p95();
  const std::size_t outstanding =
      session_.services().total_outstanding(replica_.name);
  const bool cooled =
      session_.now() - last_action_ >= config_.cooldown;
  if (p95 > config_.target_p95) {
    // SLO violated: any headroom streak is over, add capacity. Scaling
    // up repeats every cooled poll while the violation lasts — even
    // though the window still holds pre-scale-up samples — because
    // under-reacting to a breached SLO costs more than overshooting
    // toward max_replicas; the cooldown paces the ramp and the
    // sustained-headroom path sheds any excess once the window clears.
    headroom_polls_ = 0;
    if (cooled && active < config_.max_replicas) {
      scale_up(outstanding, p95);
    }
    return;
  }
  if (p95 < 0.0 && outstanding > 0) {
    // No completed request inside the window, yet work is in flight: a
    // saturated pool whose requests all outlive the window looks
    // exactly like an idle one to the latency signal. Hold — shedding
    // capacity here would deepen the very overload that emptied the
    // window.
    headroom_polls_ = 0;
    return;
  }
  if (p95 < 0.0 ||
      p95 <= config_.headroom_fraction * config_.target_p95) {
    // Sustained headroom (an empty window is an idle group): only a
    // full streak of quiet polls sheds a replica. A pool in flux (a
    // replica still booting) does not accrue the streak — the window
    // does not yet reflect the new capacity, and shedding the moment a
    // bootstrap completes is exactly the flapping hysteresis exists to
    // prevent.
    if (active != running) {
      headroom_polls_ = 0;
      return;
    }
    ++headroom_polls_;
    if (headroom_polls_ >= config_.down_sustain && cooled &&
        running > config_.min_replicas && active == running) {
      scale_down(outstanding, p95);
      headroom_polls_ = 0;
    }
    return;
  }
  // Hysteresis band (headroom < p95 <= target): hold the pool steady
  // so a p95 oscillating near the target cannot flap replicas.
  headroom_polls_ = 0;
}

void Autoscaler::repair_pool() {
  last_action_ = session_.now();
  ++repairs_;
  log_.warn("group '", replica_.name, "' has no live replicas; resubmitting ",
            config_.min_replicas);
  std::vector<core::ServiceDescription> descs(config_.min_replicas,
                                              replica_);
  std::vector<std::string> uids =
      session_.services().submit_all(pilot_, std::move(descs));
  replicas_.insert(replicas_.end(), uids.begin(), uids.end());
  decisions_.push_back(
      Decision{session_.now(), true, 0, active_replicas()});
  session_.counters().add("autoscale.repairs");
  if (session_.tracer().enabled()) {
    session_.tracer().instant(
        "repair", "autoscale", replica_.name, session_.now(), 0,
        {{"replicas", std::to_string(active_replicas())}});
  }
}

void Autoscaler::scale_up(std::size_t outstanding, double p95) {
  last_action_ = session_.now();
  ++scale_ups_;
  const std::string uid =
      session_.services().submit(pilot_, replica_);
  replicas_.push_back(uid);
  decisions_.push_back(Decision{session_.now(), true, outstanding,
                                active_replicas(), p95});
  session_.counters().add("autoscale.ups");
  if (session_.tracer().enabled()) {
    session_.tracer().instant(
        "scale-up", "autoscale", replica_.name, session_.now(), 0,
        {{"outstanding", std::to_string(outstanding)},
         {"replicas", std::to_string(active_replicas())},
         {"p95", strutil::format_fixed(p95, 6)}});
  }
  log_.info("scale up -> ", active_replicas(), " replicas (backlog ",
            outstanding, ")");
}

std::string Autoscaler::scale_down_victim() const {
  // Deterministic victim: the least-loaded running replica drains
  // fastest under skewed load (the balancer migrates its few in-flight
  // requests); ties pick the newest, so an evenly idle pool keeps its
  // oldest replicas and endpoint churn stays minimal.
  std::string victim;
  std::size_t victim_load = 0;
  for (const auto& uid : replicas_) {  // submission order: <= favors newest
    if (!session_.services().exists(uid)) continue;
    if (session_.services().get(uid).state() !=
        core::ServiceState::running) {
      continue;
    }
    const std::size_t load = session_.services().outstanding_of(uid);
    if (victim.empty() || load <= victim_load) {
      victim = uid;
      victim_load = load;
    }
  }
  return victim;
}

void Autoscaler::scale_down(std::size_t outstanding, double p95) {
  const std::string victim = scale_down_victim();
  if (victim.empty()) return;
  last_action_ = session_.now();
  ++scale_downs_;
  session_.services().stop(victim);
  // The victim is DRAINING now, so running_replicas() is the pool
  // size traffic can still reach.
  decisions_.push_back(Decision{session_.now(), false, outstanding,
                                running_replicas(), p95});
  session_.counters().add("autoscale.downs");
  if (session_.tracer().enabled()) {
    session_.tracer().instant(
        "scale-down", "autoscale", replica_.name, session_.now(), 0,
        {{"outstanding", std::to_string(outstanding)},
         {"replicas", std::to_string(running_replicas())},
         {"p95", strutil::format_fixed(p95, 6)}});
  }
  log_.info("scale down -> ", active_replicas(), " replicas (backlog ",
            outstanding, ")");
}

json::Value Autoscaler::stats() const {
  json::Value out = json::Value::object();
  out.set("group", replica_.name);
  out.set("min_replicas", config_.min_replicas);
  out.set("max_replicas", config_.max_replicas);
  out.set("active", active_replicas());
  out.set("running", running_replicas());
  out.set("scale_ups", scale_ups_);
  out.set("scale_downs", scale_downs_);
  out.set("repairs", repairs_);
  if (config_.target_p95 > 0.0) {
    out.set("target_p95", config_.target_p95);
    out.set("window_p95", window_p95());
  }
  return out;
}

}  // namespace ripple::ml
