#pragma once

/// \file transfer_engine.hpp
/// Contention-aware bulk transfer scheduling over zone-pair links.
///
/// The old DataManager modeled every transfer as an independent
/// bandwidth sample: ten concurrent 10 GB transfers over one 10 Gb/s
/// WAN link each finished as if they had the link to themselves. The
/// TransferEngine replaces that fiction with a progress-based fair-share
/// model: all transfers flowing over the same zone-pair link split its
/// bandwidth equally, and every join/leave re-plans the survivors —
/// remaining bytes are advanced at the old rate, a new rate is
/// assigned, and completion timers are rescheduled. The event loop's
/// (time, sequence) ordering makes the whole schedule bit-reproducible.
///
/// Links carry a per-link concurrency cap (queued transfers start FIFO
/// as slots free up) and an optional failure model with bounded retries.
/// Bandwidth resolution makes sim::Network the single source of truth:
/// an explicit per-pair override wins (for zones without a modeled
/// link, e.g. external archives), then the Network link model's
/// bandwidth, then the engine default.
///
/// Every transfer is striped: it owns one stripe per distinct source
/// zone, and a transfer from one replica is simply a transfer with one
/// stripe. The bytes are split across the disjoint (src, dst) links
/// proportionally to the rate each link would give a newcomer right now
/// (bandwidth discounted by its active and queued transfers), and every
/// stripe rides the ordinary fair-share replanning of its own link.
/// Stripes complete (and retry) independently; the transfer commits when
/// the last stripe lands and is the only thing the completion log and
/// the counters record — stripe order is deterministic (sources sorted),
/// so same-seed schedules stay bit-reproducible.
///
/// Multi-tenant links. Transfers carry an optional tenant id. Two
/// opt-in controls keep one tenant's burst from starving another's:
/// per-tenant *weights* (set_tenant_weight) turn the equal split into a
/// weighted fair share — a link's bandwidth divides across the tenants
/// flowing on it in weight proportion, then equally within each tenant
/// — and per-tenant *link quotas* (set_tenant_link_quota) cap the bytes
/// one tenant may have in flight per link, parking the excess in the
/// link queue (skip-scanned, so other tenants behind it are not
/// blocked; a tenant with nothing in flight on a link may always start
/// one transfer, so quotas throttle, never starve). With no weights
/// registered the split is exactly the historical bandwidth/flowing —
/// bit-identical, not just approximately equal — and with no quotas the
/// queue drains strictly FIFO as before.
///
/// replan_all() — the "telemetry tick", run after mid-simulation
/// bandwidth changes — plans every link that has carried a stripe, in
/// (zone, zone) name order, then commits the timer reschedules in
/// (completion time, stripe id) order. Stripe ids are unique, so the
/// committed timer sequence is a pure function of the plan
/// (completion_hash fingerprints the outcome). The per-link replan run
/// by join/leave events commits in admission order.
///
/// Links are dense. Zone names are interned, and each unordered zone
/// pair gets a link id the first time a call names it; the link record
/// holds the pair's bandwidth override, concurrency cap, down flag,
/// active set and queue, and a stripe carries its link's id. Only the
/// public calls, which take zone names, resolve names to ids.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/data/zone_names.hpp"
#include "ripple/metrics/counters.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"

namespace ripple::data {

class TransferEngine {
 public:
  using TransferId = std::uint64_t;
  using Callback = std::function<void(bool ok, sim::Duration elapsed)>;

  TransferEngine(sim::EventLoop& loop, common::Rng rng);

  /// Wires the Network whose link models provide bandwidth (may be
  /// null: overrides/default only).
  void set_network(const sim::Network* network) noexcept {
    network_ = network;
  }

  /// Explicit per-pair bandwidth override (bytes/s, symmetric). Wins
  /// over the Network link model.
  void set_bandwidth(const std::string& zone_a, const std::string& zone_b,
                     double bytes_per_s);
  void set_default_bandwidth(double bytes_per_s);

  /// Transfer-service handshake latency per attempt (Globus-like).
  void set_setup_latency(common::Distribution dist) { setup_ = dist; }

  /// Concurrency cap of one link (default: default_concurrency()).
  void set_link_concurrency(const std::string& zone_a,
                            const std::string& zone_b, std::size_t cap);
  void set_default_concurrency(std::size_t cap);

  /// Per-attempt failure probability and the retry budget per transfer.
  void set_failure(double probability, int max_retries);

  /// Registers (or updates) a tenant's bandwidth weight; weight must be
  /// > 0. The first registration switches every link to the weighted
  /// split (see file comment). Tenants without a weight ride at 1.
  void set_tenant_weight(const std::string& tenant, double weight);

  /// Caps the bytes `tenant` may have in flight on any single link;
  /// excess transfers queue until the tenant's own traffic drains.
  void set_tenant_link_quota(const std::string& tenant, double bytes);

  /// Marks the (a, b) link down: every active or queued attempt on it
  /// fails *terminally* — retrying a dead link is pointless, so the
  /// retry budget is bypassed. A dead stripe's share fails over to a
  /// surviving stripe of its transfer on a live link; a transfer whose
  /// last stripe dies fails. Attempts admitted while the link is down
  /// fail after their setup latency the same way. Idempotent.
  void fail_link(const std::string& zone_a, const std::string& zone_b);

  /// Brings a failed link back up and admits whatever queued on it in
  /// the meantime. Idempotent.
  void restore_link(const std::string& zone_a, const std::string& zone_b);

  [[nodiscard]] bool link_down(const std::string& zone_a,
                               const std::string& zone_b) const;

  /// Wires the runtime's tracer/counters in (either may be null). When
  /// tracing is enabled each transfer gets a span — one "transfer" span
  /// for a single stripe, a "transfer-striped" span with a "stripe"
  /// child per source otherwise — replan_all() emits one "replan" span
  /// per link, and the transfer counters tick.
  void set_trace(metrics::Tracer* tracer,
                 metrics::Counters* counters) noexcept {
    tracer_ = tracer;
    counters_ = counters;
  }

  /// Recomputes the fair-share rate of every flowing stripe on every
  /// link against freshly resolved bandwidth — the "telemetry tick".
  /// Bandwidth setters stay config-only (existing schedules are
  /// untouched); a caller that changes bandwidth mid-run calls this to
  /// re-rate live flows. The rescheduling commits in (completion time,
  /// stripe id) order. Returns the number of flowing stripes replanned.
  std::size_t replan_all();

  /// Starts a transfer of `bytes` into `dst_zone` from the replicas in
  /// `src_zones`: one stripe per distinct source zone (duplicates
  /// collapse, a source equal to the destination is ignored), each
  /// carrying a share of the bytes proportional to the rate its link
  /// would give a newcomer now (newcomer_rate) and admitted, or queued
  /// at the link's cap, in sorted source order. `on_done` fires exactly
  /// once, with the outcome and the elapsed time since this call:
  /// success when the last stripe lands; a stripe that exhausts its
  /// retries fails over its share to the first surviving stripe, and
  /// the transfer fails only when its last stripe dies.
  TransferId transfer(const std::string& dataset,
                      std::vector<std::string> src_zones,
                      const std::string& dst_zone, double bytes,
                      Callback on_done, const std::string& tenant = "");

  /// Abandons a transfer and all its stripes; its callback never fires.
  /// Returns false when the id is unknown (already settled or
  /// cancelled).
  bool cancel(TransferId id);

  /// Resolved bandwidth for a zone pair: override, then Network link
  /// model, then default.
  [[nodiscard]] double bandwidth_between(const std::string& zone_a,
                                         const std::string& zone_b) const;

  /// The rate a transfer joining the link right now could expect:
  /// resolved bandwidth discounted by the stripes already active or
  /// queued there. The single source of truth for both the stripe
  /// split and the PlacementAdvisor's stage-in estimate.
  [[nodiscard]] double newcomer_rate(const std::string& src_zone,
                                     const std::string& dst_zone) const;

  [[nodiscard]] std::size_t active_on(const std::string& zone_a,
                                      const std::string& zone_b) const;
  [[nodiscard]] std::size_t queued_on(const std::string& zone_a,
                                      const std::string& zone_b) const;

  [[nodiscard]] std::uint64_t transfers_started() const noexcept {
    return started_;
  }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint64_t transfers_failed() const noexcept {
    return failed_;
  }
  [[nodiscard]] std::uint64_t transfers_cancelled() const noexcept {
    return cancelled_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  /// Stripes of multi-source transfers (>= 2 per transfer); a
  /// transfer from one source counts none.
  [[nodiscard]] std::uint64_t stripes_started() const noexcept {
    return stripes_started_;
  }
  /// Dead stripes whose share was reassigned to a surviving stripe.
  [[nodiscard]] std::uint64_t stripe_failovers() const noexcept {
    return stripe_failovers_;
  }
  /// Transfers started but not yet settled. The fuzz suite asserts
  /// started == completed + failed + cancelled + live.
  [[nodiscard]] std::uint64_t live() const noexcept {
    return transfers_.size();
  }

  [[nodiscard]] double bytes_moved() const noexcept { return bytes_moved_; }
  [[nodiscard]] const common::Summary& transfer_times() const noexcept {
    return transfer_times_;
  }

  /// Dataset names in completion order (successes only) — the
  /// determinism suite asserts this is bit-identical across same-seed
  /// runs.
  [[nodiscard]] const std::vector<std::string>& completion_log()
      const noexcept {
    return completion_log_;
  }

  /// FNV-1a fingerprint of the completion log — the same-seed
  /// determinism oracle.
  [[nodiscard]] std::uint64_t completion_hash() const noexcept;

 private:
  using ZoneId = ZoneNames::Id;
  /// Dense id of an unordered zone pair, assigned on first mention.
  using LinkId = std::uint32_t;
  static constexpr std::uint32_t kNone = ZoneNames::kNone;  ///< no zone/link

  enum class Phase { queued, setup, flowing };

  /// One source's share of a transfer, riding the (src, dst) link.
  struct Stripe {
    TransferId id = 0;
    TransferId transfer = 0;  ///< the owning transfer
    LinkId link = 0;          ///< the (src, dst) link
    std::string tenant;       ///< weighted share / quota bucket
    double total_bytes = 0.0;
    double remaining = 0.0;
    double rate = 0.0;
    sim::SimTime last_update = 0.0;
    sim::EventLoop::TimerHandle timer;
    Phase phase = Phase::queued;
    int attempts = 0;
    bool attempt_fails = false;  ///< sampled at admission, per attempt
    metrics::SpanId trace = 0;   ///< "stripe" span, 0 for a lone stripe
  };

  /// A transfer: its stripes in flight and what it reports once.
  struct Transfer {
    std::string dataset;
    double total_bytes = 0.0;
    sim::SimTime started_at = 0.0;    ///< transfer() call time
    std::vector<TransferId> stripes;  ///< still in flight, creation order
    metrics::SpanId trace = 0;        ///< open tracer span, 0 when untraced
    Callback on_done;
  };

  /// One unordered zone pair: its configuration, state and traffic.
  struct Link {
    ZoneId first = 0;   ///< the zone whose name sorts first
    ZoneId second = 0;  ///< the other zone (first == second for a loop)
    double bandwidth = 0.0;  ///< explicit override, 0 when none
    std::size_t cap = 0;     ///< concurrency cap, 0 for the default
    bool down = false;
    bool used = false;  ///< has carried a stripe: replan_all plans it
    std::vector<TransferId> active;  ///< setup + flowing, admission order
    std::deque<TransferId> queued;
  };

  /// The id of zone `name`, interning an unknown zone with an empty
  /// link row.
  [[nodiscard]] ZoneId zone_for(const std::string& name);
  /// The link between two zones, or kNone.
  [[nodiscard]] LinkId find_link(const std::string& zone_a,
                                 const std::string& zone_b) const;
  [[nodiscard]] LinkId link_for(ZoneId a, ZoneId b);  ///< interns
  /// First use of a link: replan_all plans it from now on.
  void mark_used(LinkId id);
  /// Resolved bandwidth of link `id` (kNone: no link yet) between the
  /// zones named `zone_a` and `zone_b`.
  [[nodiscard]] double bandwidth_of(LinkId id, const std::string& zone_a,
                                    const std::string& zone_b) const;
  /// newcomer_rate() of a link already named.
  [[nodiscard]] double newcomer_rate(LinkId id) const;
  [[nodiscard]] std::size_t cap_for(const Link& link) const {
    return link.cap == 0 ? default_concurrency_ : link.cap;
  }

  void admit(Stripe& stripe);
  void begin_flow(TransferId id);
  void on_attempt_end(TransferId id);
  void leave_link(Stripe& stripe);

  /// Admits (or queues, at the link cap or the tenant's link quota) a
  /// stripe already registered in stripes_.
  void enter_link(TransferId id);

  /// Takes a stripe off its link: out of the queue, or out of the
  /// active set (which admits queued work and replans the survivors).
  void withdraw(Stripe& stripe);

  /// True when admitting `s` now would push its tenant past its
  /// per-link in-flight byte quota. Always false for tenants without a
  /// quota, and for a tenant with nothing active on the link (the
  /// starvation guard).
  [[nodiscard]] bool over_quota(const Link& link, const Stripe& s) const;

  /// Admits queued stripes while capacity (and quota) allow,
  /// skip-scanning past quota-parked entries so they cannot block other
  /// tenants. With no quotas registered this is a strict-FIFO drain.
  /// No-op while the link is down.
  void drain_queue(Link& link);

  [[nodiscard]] double weight_for(const std::string& tenant) const;

  /// A stripe finished its last attempt: settle it against its
  /// transfer. Success commits the transfer when it was the last
  /// stripe; failure moves the share to the first surviving stripe, or
  /// fails the transfer when none is left.
  void finish_stripe(std::map<TransferId, Stripe>::iterator it, bool ok);

  /// Fails an attempt terminally, bypassing the retry budget — the
  /// link-down path; the stripe settles through finish_stripe.
  void fail_attempt_terminal(TransferId id);

  /// Removes a stripe from its link/queue without callbacks or metric
  /// changes (the transfer's outcome is accounted by cancel()).
  void abort_stripe(TransferId id);

  /// Ends an open transfer span with an `outcome` annotation; no-op on
  /// id 0 or without a wired tracer.
  void close_span(metrics::SpanId id, const char* outcome);

  /// Advances progress of every flowing stripe on the link to `now`,
  /// reassigns fair-share rates and reschedules completion timers.
  void replan(LinkId id);

  /// One completion-timer reschedule produced by a planning pass.
  struct PlannedTimer {
    sim::SimTime at = 0.0;  ///< completion time
    TransferId id = 0;      ///< the stripe
    sim::Duration eta = 0.0;
  };

  /// The loop-free half of replan(): advances progress and assigns the
  /// new fair-share rate of every flowing stripe on the link, buffering
  /// a timer record per stripe instead of touching the event loop.
  void plan_link(LinkId id, std::vector<PlannedTimer>& sink);

  sim::EventLoop& loop_;
  common::Rng rng_;
  metrics::Tracer* tracer_ = nullptr;
  metrics::Counters* counters_ = nullptr;
  const sim::Network* network_ = nullptr;
  ZoneNames zones_;
  /// By zone id, in parallel with zones_: each row holds the link to
  /// every other zone by that zone's id, kNone where none is named yet.
  std::vector<std::vector<LinkId>> link_rows_;
  std::vector<Link> links_;  ///< by link id
  /// Links that have carried a stripe, in (zone, zone) name order.
  std::vector<LinkId> used_links_;
  std::map<std::string, double> tenant_weights_;  ///< tenant -> bw weight
  std::map<std::string, double> link_quota_;  ///< tenant -> bytes per link
  std::map<TransferId, Transfer> transfers_;
  std::map<TransferId, Stripe> stripes_;
  double default_bandwidth_ = 1.25e9;  ///< 10 Gb/s
  std::size_t default_concurrency_ = 32;
  common::Distribution setup_ =
      common::Distribution::lognormal(1.5, 0.3, 0.05);
  double failure_probability_ = 0.0;
  int max_retries_ = 2;
  TransferId next_id_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t stripes_started_ = 0;
  std::uint64_t stripe_failovers_ = 0;
  double bytes_moved_ = 0.0;
  common::Summary transfer_times_;
  std::vector<std::string> completion_log_;
};

}  // namespace ripple::data
