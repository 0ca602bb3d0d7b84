#include "ripple/data/transfer_engine.hpp"

#include <algorithm>
#include <tuple>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::data {

TransferEngine::TransferEngine(sim::EventLoop& loop, common::Rng rng)
    : loop_(loop), rng_(rng) {}

TransferEngine::ZoneId TransferEngine::zone_for(const std::string& name) {
  const ZoneId z = zones_.intern(name);
  if (z == link_rows_.size()) link_rows_.emplace_back();
  return z;
}

TransferEngine::LinkId TransferEngine::find_link(
    const std::string& zone_a, const std::string& zone_b) const {
  const ZoneId a = zones_.find(zone_a);
  const ZoneId b = zones_.find(zone_b);
  if (a == kNone || b == kNone) return kNone;
  const std::vector<LinkId>& row = link_rows_[a];
  return b < row.size() ? row[b] : kNone;
}

TransferEngine::LinkId TransferEngine::link_for(ZoneId a, ZoneId b) {
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    std::vector<LinkId>& row = link_rows_[from];
    if (to >= row.size()) row.resize(to + 1, kNone);
  }
  LinkId& id = link_rows_[a][b];
  if (id != kNone) return id;
  id = static_cast<LinkId>(links_.size());
  link_rows_[b][a] = id;
  Link& link = links_.emplace_back();
  // The pair is unordered; its name order is the order replan_all
  // walks and labels it by.
  const bool a_first = !(zones_.name(b) < zones_.name(a));
  link.first = a_first ? a : b;
  link.second = a_first ? b : a;
  return id;
}

void TransferEngine::mark_used(LinkId id) {
  if (links_[id].used) return;
  links_[id].used = true;
  const auto names = [this](LinkId link) {
    return std::tie(zones_.name(links_[link].first),
                    zones_.name(links_[link].second));
  };
  used_links_.insert(
      std::upper_bound(used_links_.begin(), used_links_.end(), id,
                       [&names](LinkId x, LinkId y) {
                         return names(x) < names(y);
                       }),
      id);
}

void TransferEngine::set_bandwidth(const std::string& zone_a,
                                   const std::string& zone_b,
                                   double bytes_per_s) {
  ensure(bytes_per_s > 0.0, Errc::invalid_argument,
         "bandwidth must be positive");
  links_[link_for(zone_for(zone_a), zone_for(zone_b))].bandwidth =
      bytes_per_s;
}

void TransferEngine::set_default_bandwidth(double bytes_per_s) {
  ensure(bytes_per_s > 0.0, Errc::invalid_argument,
         "bandwidth must be positive");
  default_bandwidth_ = bytes_per_s;
}

void TransferEngine::set_link_concurrency(const std::string& zone_a,
                                          const std::string& zone_b,
                                          std::size_t cap) {
  ensure(cap >= 1, Errc::invalid_argument, "concurrency cap must be >= 1");
  links_[link_for(zone_for(zone_a), zone_for(zone_b))].cap = cap;
}

void TransferEngine::set_default_concurrency(std::size_t cap) {
  ensure(cap >= 1, Errc::invalid_argument, "concurrency cap must be >= 1");
  default_concurrency_ = cap;
}

void TransferEngine::set_failure(double probability, int max_retries) {
  ensure(probability >= 0.0 && probability < 1.0, Errc::invalid_argument,
         "failure probability must be in [0, 1)");
  ensure(max_retries >= 0, Errc::invalid_argument,
         "max_retries must be >= 0");
  failure_probability_ = probability;
  max_retries_ = max_retries;
}

void TransferEngine::set_tenant_weight(const std::string& tenant,
                                       double weight) {
  ensure(!tenant.empty(), Errc::invalid_argument,
         "bandwidth weight needs a tenant");
  ensure(weight > 0.0, Errc::invalid_argument,
         "bandwidth weight must be > 0");
  tenant_weights_[tenant] = weight;
}

void TransferEngine::set_tenant_link_quota(const std::string& tenant,
                                           double bytes) {
  ensure(!tenant.empty(), Errc::invalid_argument,
         "link quota needs a tenant");
  ensure(bytes > 0.0, Errc::invalid_argument,
         "link quota must be > 0 bytes");
  link_quota_[tenant] = bytes;
}

double TransferEngine::weight_for(const std::string& tenant) const {
  const auto it = tenant_weights_.find(tenant);
  return it == tenant_weights_.end() ? 1.0 : it->second;
}

double TransferEngine::bandwidth_of(LinkId id, const std::string& zone_a,
                                    const std::string& zone_b) const {
  if (id != kNone && links_[id].bandwidth > 0.0) return links_[id].bandwidth;
  if (network_ != nullptr) {
    const double bw = network_->link_bandwidth(zone_a, zone_b);
    if (bw > 0.0) return bw;
  }
  return default_bandwidth_;
}

double TransferEngine::newcomer_rate(const std::string& src_zone,
                                     const std::string& dst_zone) const {
  const LinkId id = find_link(src_zone, dst_zone);
  // A link never named yet carries nothing: the newcomer gets it all.
  return id == kNone ? bandwidth_of(kNone, src_zone, dst_zone)
                     : newcomer_rate(id);
}

double TransferEngine::newcomer_rate(LinkId id) const {
  const Link& link = links_[id];
  const double load = static_cast<double>(link.active.size()) +
                      static_cast<double>(link.queued.size()) + 1.0;
  return bandwidth_of(id, zones_.name(link.first),
                      zones_.name(link.second)) /
         load;
}

std::size_t TransferEngine::active_on(const std::string& zone_a,
                                      const std::string& zone_b) const {
  const LinkId id = find_link(zone_a, zone_b);
  return id == kNone ? 0 : links_[id].active.size();
}

std::size_t TransferEngine::queued_on(const std::string& zone_a,
                                      const std::string& zone_b) const {
  const LinkId id = find_link(zone_a, zone_b);
  return id == kNone ? 0 : links_[id].queued.size();
}

bool TransferEngine::link_down(const std::string& zone_a,
                               const std::string& zone_b) const {
  const LinkId id = find_link(zone_a, zone_b);
  return id != kNone && links_[id].down;
}

TransferEngine::TransferId TransferEngine::transfer(
    const std::string& dataset, std::vector<std::string> src_zones,
    const std::string& dst_zone, double bytes, Callback on_done,
    const std::string& tenant) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "transfer: empty callback");
  ensure(bytes >= 0.0, Errc::invalid_argument,
         "transfer: bytes must be >= 0");
  // Distinct sources in sorted order: one stripe per (src, dst) link,
  // admitted deterministically.
  std::sort(src_zones.begin(), src_zones.end());
  src_zones.erase(std::unique(src_zones.begin(), src_zones.end()),
                  src_zones.end());
  src_zones.erase(
      std::remove(src_zones.begin(), src_zones.end(), dst_zone),
      src_zones.end());
  ensure(!src_zones.empty(), Errc::invalid_argument,
         "transfer: no usable source zone");

  const bool one_stripe = src_zones.size() == 1;
  const TransferId id = next_id_++;
  Transfer& t = transfers_[id];
  t.dataset = dataset;
  t.total_bytes = bytes;
  t.started_at = loop_.now();
  t.on_done = std::move(on_done);
  if (tracer_ != nullptr && tracer_->enabled()) {
    // A lone stripe is traced as the transfer itself.
    t.trace = one_stripe
                  ? tracer_->begin("transfer", "xfer", dataset, loop_.now(),
                                   0, {{"src", src_zones.front()},
                                       {"dst", dst_zone}})
                  : tracer_->begin("transfer-striped", "xfer", dataset,
                                   loop_.now(), 0, {{"dst", dst_zone}});
    if (!tenant.empty()) tracer_->arg(t.trace, "tenant", tenant);
  }
  if (counters_ != nullptr) {
    counters_->add("data.transfers");
    // Name the per-tenant counter only when it will be kept.
    if (!tenant.empty() && counters_->enabled()) {
      counters_->add(strutil::cat("data.transfers.", tenant));
    }
  }
  ++started_;
  if (!one_stripe) stripes_started_ += src_zones.size();

  // Weight each stripe by the rate its link can actually give a
  // newcomer *right now* (newcomer_rate), so a congested replica
  // carries proportionally fewer bytes and the transfer is not gated on
  // its slowest link. Deterministic: link state is a pure function of
  // the event schedule at this instant. A lone stripe takes every byte.
  // Naming a link for the first time leaves its rate unchanged.
  const ZoneId dst = zone_for(dst_zone);
  std::vector<LinkId> stripe_links;
  std::vector<double> rates;
  double rate_sum = 0.0;
  for (const auto& src : src_zones) {
    stripe_links.push_back(link_for(zone_for(src), dst));
    if (one_stripe) break;
    rates.push_back(newcomer_rate(stripe_links.back()));
    rate_sum += rates.back();
  }
  // Bandwidth-proportional split; the last stripe takes the remainder
  // so the shares always sum to exactly `bytes`.
  double assigned = 0.0;
  for (std::size_t i = 0; i < src_zones.size(); ++i) {
    const std::string& src = src_zones[i];
    const double share = i + 1 == src_zones.size()
                             ? bytes - assigned
                             : bytes * (rates[i] / rate_sum);
    assigned += share;

    const TransferId stripe_id = next_id_++;
    Stripe& stripe = stripes_[stripe_id];
    stripe.id = stripe_id;
    stripe.transfer = id;
    stripe.link = stripe_links[i];
    stripe.tenant = tenant;
    stripe.total_bytes = share;
    stripe.remaining = share;
    if (!one_stripe && t.trace != 0) {
      stripe.trace = tracer_->begin("stripe", "xfer", dataset, loop_.now(),
                                    t.trace, {{"src", src}});
    }
    t.stripes.push_back(stripe_id);
  }
  // Admission after every stripe is registered: a zero-byte stripe
  // could otherwise complete before its siblings exist.
  for (const TransferId stripe_id : t.stripes) enter_link(stripe_id);
  return id;
}

void TransferEngine::enter_link(TransferId id) {
  Stripe& stripe = stripes_.at(id);
  mark_used(stripe.link);
  Link& link = links_[stripe.link];
  if (link.active.size() < cap_for(link) && !over_quota(link, stripe)) {
    admit(stripe);
  } else {
    link.queued.push_back(id);
  }
}

bool TransferEngine::over_quota(const Link& link, const Stripe& s) const {
  if (s.tenant.empty()) return false;
  const auto quota = link_quota_.find(s.tenant);
  if (quota == link_quota_.end()) return false;
  double in_flight = 0.0;
  std::size_t own = 0;
  for (const TransferId active_id : link.active) {
    const Stripe& other = stripes_.at(active_id);
    if (other.tenant != s.tenant) continue;
    ++own;
    in_flight += other.total_bytes;
  }
  // Starvation guard: a tenant with nothing in flight on the link may
  // always start one transfer, however large — the quota throttles
  // concurrency, it cannot wedge a tenant whose datasets exceed it.
  if (own == 0) return false;
  return in_flight + s.total_bytes > quota->second;
}

void TransferEngine::drain_queue(Link& link) {
  // A failed link keeps its queue parked: restore_link drains it.
  if (link.down) return;
  // Skip-scan: quota-parked entries stay queued (in order) while later
  // entries of other tenants are admitted past them. deque::erase
  // returns the successor, so the scan survives its own admissions.
  auto it = link.queued.begin();
  while (it != link.queued.end() && link.active.size() < cap_for(link)) {
    Stripe& stripe = stripes_.at(*it);
    if (over_quota(link, stripe)) {
      ++it;
      continue;
    }
    it = link.queued.erase(it);
    admit(stripe);
  }
}

void TransferEngine::admit(Stripe& stripe) {
  Link& link = links_[stripe.link];
  link.active.push_back(stripe.id);
  stripe.phase = Phase::setup;
  ++stripe.attempts;
  // Per-attempt draws, in admission order: deterministic given the
  // event schedule.
  stripe.attempt_fails = rng_.chance(failure_probability_);
  // An attempt admitted onto a failed link dies after its setup
  // latency (the handshake times out); on_attempt_end treats it as
  // terminal while the link stays down.
  if (link.down) stripe.attempt_fails = true;
  const sim::Duration setup = setup_.sample(rng_);
  const TransferId id = stripe.id;
  stripe.timer = loop_.call_after(setup, [this, id] { begin_flow(id); });
}

void TransferEngine::begin_flow(TransferId id) {
  const auto it = stripes_.find(id);
  if (it == stripes_.end()) return;
  it->second.phase = Phase::flowing;
  it->second.timer = {};
  it->second.last_update = loop_.now();
  replan(it->second.link);
}

void TransferEngine::plan_link(LinkId id, std::vector<PlannedTimer>& sink) {
  const sim::SimTime now = loop_.now();
  Link& link = links_[id];

  std::size_t flowing = 0;
  for (const TransferId stripe : link.active) {
    Stripe& s = stripes_.at(stripe);
    if (s.phase != Phase::flowing) continue;
    ++flowing;
    s.remaining -= s.rate * (now - s.last_update);
    if (s.remaining < 0.0) s.remaining = 0.0;
    s.last_update = now;
  }
  if (flowing == 0) return;

  const double bandwidth = bandwidth_of(id, zones_.name(link.first),
                                        zones_.name(link.second));
  if (tenant_weights_.empty()) {
    // The historical equal split, kept as its own arithmetic path: the
    // weighted formula below reduces to it mathematically, but only
    // this exact expression is *bit*-identical to the pre-tenant
    // engine.
    const double share = bandwidth / static_cast<double>(flowing);
    for (const TransferId stripe : link.active) {
      Stripe& s = stripes_.at(stripe);
      if (s.phase != Phase::flowing) continue;
      s.rate = share;
      const sim::Duration eta = s.remaining / share;
      sink.push_back(PlannedTimer{now + eta, s.id, eta});
    }
    return;
  }
  // Weighted split: the link divides across the tenants flowing on it
  // in weight proportion, then equally within each tenant. A single
  // flowing tenant gets weight/weight == 1.0 exactly, i.e. the equal
  // split.
  std::map<std::string, std::size_t> flows_by_tenant;
  for (const TransferId stripe : link.active) {
    const Stripe& s = stripes_.at(stripe);
    if (s.phase != Phase::flowing) continue;
    ++flows_by_tenant[s.tenant];
  }
  double weight_sum = 0.0;
  for (const auto& [tenant, count] : flows_by_tenant) {
    weight_sum += weight_for(tenant);
  }
  for (const TransferId stripe : link.active) {
    Stripe& s = stripes_.at(stripe);
    if (s.phase != Phase::flowing) continue;
    const double share =
        bandwidth * (weight_for(s.tenant) / weight_sum) /
        static_cast<double>(flows_by_tenant.at(s.tenant));
    s.rate = share;
    const sim::Duration eta = s.remaining / share;
    sink.push_back(PlannedTimer{now + eta, s.id, eta});
  }
}

void TransferEngine::replan(LinkId id) {
  // Commit in the link's admission order — cancel() consumes no event
  // sequence, so the call_after sequence here is byte-identical to the
  // pre-plan_link implementation.
  std::vector<PlannedTimer> planned;
  plan_link(id, planned);
  for (const PlannedTimer& plan : planned) {
    Stripe& s = stripes_.at(plan.id);
    if (s.timer.valid()) loop_.cancel(s.timer);
    s.timer = loop_.call_after(plan.eta,
                               [this, id = plan.id] { on_attempt_end(id); });
  }
}

std::size_t TransferEngine::replan_all() {
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  const sim::SimTime now = loop_.now();
  std::vector<PlannedTimer> planned;
  for (const LinkId id : used_links_) {
    const std::size_t before = planned.size();
    plan_link(id, planned);
    if (traced) {
      // One zero-length span per planned link, in link order.
      const Link& link = links_[id];
      tracer_->complete("replan", "xfer",
                        strutil::cat(zones_.name(link.first), "~",
                                     zones_.name(link.second)),
                        now, now, 0,
                        {{"flows", std::to_string(planned.size() - before)}});
    }
  }
  // Commit the timer reschedules in (completion time, stripe id)
  // order. Ids are unique, so the timer sequence — and with it every
  // downstream completion event — is a pure function of the plan.
  std::sort(planned.begin(), planned.end(),
            [](const PlannedTimer& a, const PlannedTimer& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.id < b.id;
            });
  for (const PlannedTimer& plan : planned) {
    Stripe& s = stripes_.at(plan.id);
    if (s.timer.valid()) loop_.cancel(s.timer);
    s.timer = loop_.call_after(plan.eta,
                               [this, id = plan.id] { on_attempt_end(id); });
  }
  return planned.size();
}

std::uint64_t TransferEngine::completion_hash() const noexcept {
  std::uint64_t hash = common::kFnvOffsetBasis;
  for (const std::string& dataset : completion_log_) {
    hash = common::fnv1a(hash, dataset);
  }
  return hash;
}

void TransferEngine::leave_link(Stripe& stripe) {
  Link& link = links_[stripe.link];
  link.active.erase(
      std::remove(link.active.begin(), link.active.end(), stripe.id),
      link.active.end());
  if (stripe.timer.valid()) {
    loop_.cancel(stripe.timer);
    stripe.timer = {};
  }
  stripe.phase = Phase::queued;
  stripe.rate = 0.0;
  // A freed slot admits queued work before the survivors re-plan, so
  // the link never idles below its cap while admissible work waits.
  drain_queue(link);
  replan(stripe.link);
}

void TransferEngine::withdraw(Stripe& stripe) {
  Link& link = links_[stripe.link];
  const auto queued =
      std::find(link.queued.begin(), link.queued.end(), stripe.id);
  if (queued != link.queued.end()) {
    link.queued.erase(queued);
  } else {
    leave_link(stripe);
  }
}

void TransferEngine::fail_link(const std::string& zone_a,
                               const std::string& zone_b) {
  Link& link = links_[link_for(zone_for(zone_a), zone_for(zone_b))];
  if (link.down) return;
  link.down = true;
  // Snapshot ids: failing an attempt mutates active/queued, and a
  // victim's callback may re-enter the engine (cancel, new transfers).
  std::vector<TransferId> victims(link.active.begin(), link.active.end());
  victims.insert(victims.end(), link.queued.begin(), link.queued.end());
  for (const TransferId victim : victims) fail_attempt_terminal(victim);
}

void TransferEngine::restore_link(const std::string& zone_a,
                                  const std::string& zone_b) {
  const LinkId id = find_link(zone_a, zone_b);
  if (id == kNone || !links_[id].down) return;  // was not down
  links_[id].down = false;
  // Drain whatever queued while the link was down.
  drain_queue(links_[id]);
  replan(id);
}

void TransferEngine::fail_attempt_terminal(TransferId id) {
  const auto it = stripes_.find(id);
  if (it == stripes_.end()) return;  // settled by a reentrant callback
  withdraw(it->second);
  finish_stripe(it, false);  // dies into the transfer's failover path
}

void TransferEngine::on_attempt_end(TransferId id) {
  const auto it = stripes_.find(id);
  if (it == stripes_.end()) return;
  Stripe& s = it->second;
  s.remaining = 0.0;
  s.timer = {};
  leave_link(s);
  if (s.attempt_fails) {
    // Retrying a dead link is pointless: while it is down, every
    // failure is terminal regardless of the budget.
    const bool terminal = links_[s.link].down;
    if (!terminal && s.attempts <= max_retries_) {
      ++retries_;
      if (counters_ != nullptr) counters_->add("data.retries");
      s.remaining = s.total_bytes;
      enter_link(id);
      return;
    }
  }
  finish_stripe(it, !s.attempt_fails);
}

void TransferEngine::finish_stripe(std::map<TransferId, Stripe>::iterator it,
                                   bool ok) {
  const TransferId id = it->first;
  const TransferId transfer_id = it->second.transfer;
  const double stripe_bytes = it->second.total_bytes;
  close_span(it->second.trace, ok ? "ok" : "failed");
  stripes_.erase(it);
  const auto record = transfers_.find(transfer_id);
  Transfer& t = record->second;
  t.stripes.erase(std::remove(t.stripes.begin(), t.stripes.end(), id),
                  t.stripes.end());
  const sim::Duration elapsed = loop_.now() - t.started_at;
  if (!ok) {
    if (!t.stripes.empty()) {
      // Failover: a dead stripe's share moves to the first surviving
      // stripe (creation order — deterministic) instead of failing the
      // transfer, so extra replicas add reliability, never risk. The
      // heir's current attempt simply carries more bytes; its own
      // retry budget still applies.
      ++stripe_failovers_;
      Stripe& heir = stripes_.at(t.stripes.front());
      heir.total_bytes += stripe_bytes;
      heir.remaining += stripe_bytes;
      if (heir.phase == Phase::flowing) {
        replan(heir.link);
      }
      return;
    }
    // The last stripe ran out of retries: the whole transfer fails and
    // the partial bytes of earlier stripes are never committed.
    ++failed_;
    if (counters_ != nullptr) counters_->add("data.failed");
    close_span(t.trace, "failed");
    Callback on_done = std::move(t.on_done);
    transfers_.erase(record);
    on_done(false, elapsed);
    return;
  }
  if (!t.stripes.empty()) return;  // commit when the last lands
  ++completed_;
  if (counters_ != nullptr) counters_->add("data.completed");
  close_span(t.trace, "ok");
  bytes_moved_ += t.total_bytes;
  transfer_times_.add(elapsed);
  completion_log_.push_back(t.dataset);
  Callback on_done = std::move(t.on_done);
  transfers_.erase(record);
  on_done(true, elapsed);
}

void TransferEngine::abort_stripe(TransferId id) {
  const auto it = stripes_.find(id);
  if (it == stripes_.end()) return;
  withdraw(it->second);
  close_span(it->second.trace, "cancelled");
  stripes_.erase(it);
}

void TransferEngine::close_span(metrics::SpanId id, const char* outcome) {
  if (tracer_ == nullptr || id == 0) return;
  tracer_->arg(id, "outcome", outcome);
  tracer_->end(id, loop_.now());
}

bool TransferEngine::cancel(TransferId id) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return false;
  const std::vector<TransferId> stripes = std::move(it->second.stripes);
  close_span(it->second.trace, "cancelled");
  transfers_.erase(it);
  for (const TransferId stripe : stripes) abort_stripe(stripe);
  ++cancelled_;
  if (counters_ != nullptr) counters_->add("data.cancelled");
  return true;
}

}  // namespace ripple::data
