#pragma once

/// \file failure_injector.hpp
/// Seeded fault injection for the deterministic simulator.
///
/// Production platforms lose components mid-run — nodes crash, spot
/// pilots are reclaimed, links flap, disks die, and some nodes just run
/// slow. The injector turns each failure mode into a schedulable,
/// seeded event stream on the event loop: inter-arrival times are
/// exponential (the MTBF model of the RADICAL-Pilot leadership-class
/// characterization), targets are drawn uniformly from the healthy set,
/// and optional mean-time-to-repair streams bring targets back. Every
/// dispatched event lands in an ordered log with a rolling FNV-1a hash,
/// so failure scenarios obey the house rule: same seed, bit-identical
/// event order.
///
/// The injector is policy-free: it names targets and times, and the
/// session-level FailureCoordinator (core/) maps each event onto the
/// runtime (cluster node lifecycle, task re-placement, catalog repair,
/// link failover). Tests can bypass the stochastic streams entirely
/// with inject_at().

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::sim {

enum class FailureKind {
  node_crash,     ///< a compute node dies; its slots die with it
  node_restore,   ///< a crashed node rejoins with full capacity
  pilot_preempt,  ///< spot reclamation: the whole pilot disappears
  link_down,      ///< a network link drops; in-flight stripes die
  link_up,        ///< a downed link comes back
  slow_node,      ///< a node degrades to `magnitude`x slower execution
  node_normal,    ///< a degraded node recovers full speed
  store_crash,    ///< a catalog store fails; its replicas are lost
  store_restore,  ///< a failed store rejoins (empty)
};

[[nodiscard]] const char* to_string(FailureKind kind) noexcept;

/// The recovery event paired with a failure kind, if the mode has one.
[[nodiscard]] std::optional<FailureKind> recovery_of(
    FailureKind kind) noexcept;

/// One dispatched failure (or recovery) event.
struct FailureEvent {
  SimTime time = 0.0;
  FailureKind kind = FailureKind::node_crash;
  std::string target;      ///< node id, pilot uid, "src->dst" link, zone
  double magnitude = 0.0;  ///< mode-specific (slow_node: slowdown factor)
};

class FailureInjector {
 public:
  using Handler = std::function<void(const FailureEvent&)>;

  /// Parameters of one seeded failure stream.
  struct Schedule {
    /// Mean seconds between failures (exponential inter-arrival).
    double mean_interarrival = 0.0;

    /// Mean seconds until the paired recovery event; <= 0 means the
    /// failure is permanent (the target is never picked again).
    double mean_time_to_repair = 0.0;

    SimTime start = 0.0;
    SimTime horizon = std::numeric_limits<double>::infinity();
    std::size_t max_events = std::numeric_limits<std::size_t>::max();

    /// Sampled per event into FailureEvent::magnitude (e.g. the
    /// slowdown factor of a slow_node event).
    common::Distribution magnitude = common::Distribution::constant(0.0);
  };

  FailureInjector(EventLoop& loop, common::Rng rng);

  FailureInjector(const FailureInjector&) = delete;
  FailureInjector& operator=(const FailureInjector&) = delete;

  /// Registers the runtime reaction to one event kind (recovery kinds
  /// are registered separately). Events without a handler still log.
  void on(FailureKind kind, Handler handler);

  /// Arms a seeded stream: failures of `kind` hit `targets` with
  /// exponential inter-arrivals. Each kind carries one stream; a
  /// target currently down is never re-picked. Streams draw from
  /// per-kind forked RNGs, so arming order does not perturb samples.
  void arm(FailureKind kind, std::vector<std::string> targets,
           Schedule schedule);

  /// Schedules one explicit event — the deterministic path for tests
  /// and benches. No recovery is implied; inject the paired kind
  /// explicitly if wanted.
  void inject_at(SimTime when, FailureKind kind, std::string target,
                 double magnitude = 0.0);

  /// Ordered "t kind target magnitude" lines — the determinism oracle.
  [[nodiscard]] const std::vector<std::string>& event_log() const noexcept {
    return log_;
  }
  [[nodiscard]] std::uint64_t event_log_hash() const noexcept {
    return log_hash_;
  }
  [[nodiscard]] std::size_t injected() const noexcept { return injected_; }

 private:
  struct Stream {
    Schedule schedule;
    std::vector<std::string> targets;
    std::set<std::size_t> up;  ///< indices currently healthy
    common::Rng rng{};
    std::size_t fired = 0;
    EventLoop::TimerHandle next{};
  };

  void schedule_next(FailureKind kind);
  void fire(FailureKind kind);
  void dispatch(FailureKind kind, const std::string& target,
                double magnitude);

  EventLoop& loop_;
  common::Rng rng_;
  std::map<FailureKind, Stream> streams_;
  std::map<FailureKind, Handler> handlers_;
  std::vector<std::string> log_;
  std::uint64_t log_hash_ = common::kFnvOffsetBasis;
  std::size_t injected_ = 0;
};

}  // namespace ripple::sim
