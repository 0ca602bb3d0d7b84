// Unit tests for the simulation substrate: event loop (with a seeded
// comparison against an ordered-map reference) and network model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"

namespace {

using namespace ripple;
using sim::EventLoop;

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.call_at(3.0, [&] { order.push_back(3); });
  loop.call_at(1.0, [&] { order.push_back(1); });
  loop.call_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, EqualTimesFireInPostingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.call_at(1.0, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, CallAfterAndPost) {
  EventLoop loop;
  double fired_at = -1;
  loop.call_after(2.5, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);

  int post_order = 0;
  loop.post([&] { EXPECT_EQ(post_order++, 0); });
  loop.post([&] { EXPECT_EQ(post_order++, 1); });
  loop.run();
  EXPECT_EQ(post_order, 2);
}

TEST(EventLoop, ReentrantSchedulingFromCallback) {
  EventLoop loop;
  std::vector<double> times;
  loop.call_after(1.0, [&] {
    times.push_back(loop.now());
    loop.call_after(1.0, [&] { times.push_back(loop.now()); });
  });
  loop.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto handle = loop.call_after(1.0, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(handle));
  EXPECT_FALSE(loop.cancel(handle));  // already cancelled
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.events_processed(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.call_at(1.0, [&] { ++fired; });
  loop.call_at(5.0, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(3.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);  // clock advances to the deadline
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, StopHaltsMidRun) {
  EventLoop loop;
  int fired = 0;
  loop.call_at(1.0, [&] {
    ++fired;
    loop.stop();
  });
  loop.call_at(2.0, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  loop.reset_stop();
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RejectsPastAndInvalid) {
  EventLoop loop;
  loop.call_at(2.0, [] {});
  loop.run();
  EXPECT_THROW(loop.call_at(1.0, [] {}), Error);
  EXPECT_THROW(loop.call_after(-0.5, [] {}), Error);
  EXPECT_THROW(loop.call_after(1.0, nullptr), Error);
}

TEST(EventLoop, PendingExcludesCancelled) {
  EventLoop loop;
  const auto h1 = loop.call_after(1.0, [] {});
  loop.call_after(2.0, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(h1);
  EXPECT_EQ(loop.pending(), 1u);
}

// ---------------------------------------------------------------------------
// EventLoop slots: generation-stamped handles
// ---------------------------------------------------------------------------

/// The slot index a handle packs into its low 32 bits (event_loop.hpp).
std::uint64_t slot_of(EventLoop::TimerHandle handle) {
  return handle.id & 0xffffffffu;
}

TEST(EventLoopSlots, HandleOfARunEventCannotCancelTheSlotsNextOccupant) {
  EventLoop loop;
  const auto first = loop.post([] {});
  loop.run();
  bool ran = false;
  const auto second = loop.post([&] { ran = true; });
  ASSERT_EQ(slot_of(first), slot_of(second));  // the freed slot is reused
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopSlots, HandleOfACancelledAndPoppedEventIsStale) {
  EventLoop loop;
  const auto first = loop.call_after(1.0, [] {});
  EXPECT_TRUE(loop.cancel(first));
  EXPECT_FALSE(loop.cancel(first));  // still queued, already cancelled
  loop.run();                        // pops the cancelled key
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  EXPECT_FALSE(loop.cancel(first));
  bool ran = false;
  const auto second = loop.call_after(1.0, [&] { ran = true; });
  ASSERT_EQ(slot_of(first), slot_of(second));
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopSlots, RunningEventCannotCancelItself) {
  EventLoop loop;
  EventLoop::TimerHandle self;
  EventLoop::TimerHandle next;
  bool cancelled_self = true;
  bool next_ran = false;
  self = loop.call_after(1.0, [&] {
    // The running event's slot is free again, so this post may take it;
    // the running event's handle must not reach the new occupant.
    next = loop.post([&] { next_ran = true; });
    cancelled_self = loop.cancel(self);
  });
  loop.run();
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(slot_of(self), slot_of(next));
  EXPECT_TRUE(next_ran);

  cancelled_self = true;
  self = loop.post([&] { cancelled_self = loop.cancel(self); });
  loop.run();
  EXPECT_FALSE(cancelled_self);
}

TEST(EventLoopSlots, CallbackCancelsALaterHeapEvent) {
  EventLoop loop;
  bool later_ran = false;
  const auto later = loop.call_at(2.0, [&] { later_ran = true; });
  bool cancelled = false;
  loop.call_at(1.0, [&] {
    cancelled = loop.cancel(later);
    EXPECT_EQ(loop.pending(), 0u);
    EXPECT_EQ(loop.cancelled_backlog(), 1u);
  });
  loop.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(later_ran);
  EXPECT_EQ(loop.events_processed(), 1u);
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  EXPECT_DOUBLE_EQ(loop.now(), 1.0);
}

TEST(EventLoopSlots, CancelledCallbackIsDestroyedWhenItsKeyPops) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const auto handle = loop.call_at(2.0, [token] {});
  token.reset();
  bool alive_at_1 = false;
  loop.call_at(1.0, [&] { alive_at_1 = !watch.expired(); });
  EXPECT_TRUE(loop.cancel(handle));
  EXPECT_FALSE(watch.expired());  // cancelled, key still queued
  loop.run();
  EXPECT_TRUE(alive_at_1);
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------------------------
// EventLoop against a reference model
// ---------------------------------------------------------------------------

/// The loop's observable bookkeeping from one ordered map of queued events
/// keyed by (time, sequence). Posted events form the now-queue, timed ones
/// the heap; a cancelled event leaves only when it is the earliest of its
/// own queue at a step boundary, as in the loop.
class ReferenceLoop {
 public:
  using Key = std::pair<double, std::uint64_t>;

  Key schedule(double when, int id, bool posted) {
    const Key key{when, next_sequence_++};
    queued_.emplace(key, Entry{id, posted, false});
    peak_ = std::max(peak_, pending());
    return key;
  }

  bool cancel(const Key& key) {
    const auto it = queued_.find(key);
    if (it == queued_.end() || it->second.cancelled) return false;
    it->second.cancelled = true;
    ++cancelled_;
    return true;
  }

  /// The id of the next event at or before `deadline` (popped), or -1.
  int step(double deadline) {
    skim(true);
    skim(false);
    if (queued_.empty() || queued_.begin()->first.first > deadline) {
      return -1;
    }
    const auto it = queued_.begin();
    now_ = it->first.first;
    const int id = it->second.id;
    queued_.erase(it);
    return id;
  }

  void finish(double deadline) { now_ = std::max(now_, deadline); }

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const {
    return queued_.size() - cancelled_;
  }
  [[nodiscard]] std::size_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::size_t peak() const { return peak_; }

 private:
  struct Entry {
    int id;
    bool posted;
    bool cancelled;
  };

  void skim(bool posted) {
    for (auto it = queued_.begin(); it != queued_.end();) {
      if (it->second.posted != posted) {
        ++it;
      } else if (it->second.cancelled) {
        it = queued_.erase(it);
        --cancelled_;
      } else {
        return;
      }
    }
  }

  std::map<Key, Entry> queued_;
  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t peak_ = 0;
};

/// Drives an EventLoop and a ReferenceLoop with the same seeded stream of
/// post/call_at/call_after/cancel/run_until, including scheduling and
/// cancelling from inside callbacks, and compares them after every step.
class EventLoopFuzz {
 public:
  explicit EventLoopFuzz(std::uint64_t seed) : rng_(seed) {}

  void run(int operations) {
    for (int i = 0; i < operations; ++i) {
      if (rng_.chance(0.2)) {
        const double deadline =
            loop_.now() + 0.5 * static_cast<double>(rng_.uniform_int(0, 4));
        deadline_ = deadline;
        loop_.run_until(deadline);
        // The step that found nothing more skimmed the fronts as well.
        EXPECT_EQ(reference_.step(deadline), -1);
        reference_.finish(deadline);
      } else {
        act();
      }
      compare();
    }
    deadline_ = std::numeric_limits<double>::infinity();
    loop_.run();
    EXPECT_EQ(reference_.step(deadline_), -1);
    compare();
    EXPECT_EQ(loop_.pending(), 0u);
    EXPECT_EQ(loop_.cancelled_backlog(), 0u);
  }

 private:
  /// One random operation; callbacks call it too (re-entrant).
  void act() {
    const auto choice = rng_.uniform_int(0, 9);
    if (choice <= 2) {
      schedule_post();
    } else if (choice <= 4) {
      schedule_after(0.5 * static_cast<double>(rng_.uniform_int(0, 3)));
    } else if (choice <= 6) {
      schedule_after(rng_.uniform(0.0, 2.0));
    } else if (!handles_.empty()) {
      // Any handle ever issued: live, cancelled, run or running.
      const auto pick = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(handles_.size()) - 1));
      EXPECT_EQ(loop_.cancel(handles_[pick]), reference_.cancel(keys_[pick]))
          << "cancel of event " << pick;
    }
  }

  void schedule_post() {
    const int id = next_id();
    keys_.push_back(reference_.schedule(loop_.now(), id, true));
    handles_.push_back(loop_.post([this, id] { fire(id); }));
  }

  void schedule_after(double delay) {
    const int id = next_id();
    const double when = loop_.now() + delay;
    keys_.push_back(reference_.schedule(when, id, false));
    if (rng_.chance(0.5)) {
      handles_.push_back(loop_.call_at(when, [this, id] { fire(id); }));
    } else {
      handles_.push_back(loop_.call_after(delay, [this, id] { fire(id); }));
    }
  }

  int next_id() { return static_cast<int>(handles_.size()); }

  void fire(int id) {
    EXPECT_EQ(id, reference_.step(deadline_)) << "firing order";
    compare();
    const auto actions = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < actions; ++i) {
      act();
      compare();
    }
  }

  void compare() {
    ASSERT_EQ(loop_.pending(), reference_.pending());
    ASSERT_EQ(loop_.cancelled_backlog(), reference_.cancelled());
    ASSERT_EQ(loop_.peak_pending(), reference_.peak());
    ASSERT_EQ(loop_.now(), reference_.now());
  }

  common::Rng rng_;
  EventLoop loop_;
  ReferenceLoop reference_;
  std::vector<EventLoop::TimerHandle> handles_;
  std::vector<ReferenceLoop::Key> keys_;
  double deadline_ = 0.0;
};

TEST(EventLoopFuzz, MatchesAnOrderedMapReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    EventLoopFuzz(seed).run(3000);
  }
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  EventLoop loop;
  common::Rng rng{17};
  sim::Network net{loop, rng};
  sim::HostIndex d0 = 0;
  sim::HostIndex d1 = 0;
  sim::HostIndex r0 = 0;

  void SetUp() override {
    d0 = net.register_host("d0", "delta");
    d1 = net.register_host("d1", "delta");
    r0 = net.register_host("r0", "r3");
    net.set_link("delta", "delta",
                 sim::LinkModel{
                     common::Distribution::normal(63e-6, 14e-6, 5e-6), 0});
    net.set_link("delta", "r3",
                 sim::LinkModel{
                     common::Distribution::normal(0.47e-3, 0.04e-3, 1e-5),
                     1.25e9});
  }
};

TEST_F(NetworkTest, ZoneRegistration) {
  EXPECT_TRUE(net.has_host("d0"));
  EXPECT_FALSE(net.has_host("x9"));
  EXPECT_EQ(net.zone_of("r0"), "r3");
  EXPECT_THROW((void)net.zone_of("x9"), Error);
  EXPECT_EQ(net.host_index("d1"), d1);
  EXPECT_EQ(net.host_name(r0), "r0");
  EXPECT_THROW((void)net.host_index("x9"), Error);
}

TEST_F(NetworkTest, ReregisteringKeepsTheIndexAndMovesTheZone) {
  EXPECT_EQ(net.register_host("d1", "r3"), d1);
  EXPECT_EQ(net.zone_of("d1"), "r3");
  // d1 now crosses the WAN link to d0 and shares r0's zone.
  EXPECT_GT(net.sample_delay(d0, d1, 0), 0.3e-3);
  EXPECT_EQ(net.link_bandwidth("delta", "r3"), 1.25e9);
  EXPECT_EQ(net.link_bandwidth("r3", "delta"), 1.25e9);
  EXPECT_EQ(net.link_bandwidth("delta", "delta"), 0.0);
  EXPECT_EQ(net.link_bandwidth("delta", "frontier"), 0.0);
}

TEST_F(NetworkTest, IntraZoneDelayMatchesCalibration) {
  common::OnlineStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(net.sample_delay(d0, d1, 64));
  }
  EXPECT_NEAR(stats.mean(), 63e-6, 2e-6);     // 0.063 ms (paper IV-C)
  EXPECT_NEAR(stats.stddev(), 14e-6, 2e-6);   // +/- 0.014 ms
}

TEST_F(NetworkTest, WanDelayMatchesCalibration) {
  common::OnlineStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.add(net.sample_delay(d0, r0, 0));
  }
  EXPECT_NEAR(stats.mean(), 0.47e-3, 1e-5);   // 0.47 ms (paper IV-C)
}

TEST_F(NetworkTest, BandwidthTermAddsTransferTime) {
  // 1.25 GB at 1.25 GB/s across the WAN link: ~1 s on top of latency.
  const double delay = net.sample_delay(d0, r0, 1'250'000'000);
  EXPECT_GT(delay, 0.9);
  EXPECT_LT(delay, 1.2);
}

TEST_F(NetworkTest, LoopbackDefaultAndZoneOverride) {
  const double default_loopback = net.sample_delay(d0, d0, 0);
  EXPECT_DOUBLE_EQ(default_loopback, 1e-6);
  net.set_zone_loopback("delta",
                        sim::LinkModel{
                            common::Distribution::constant(50e-6), 0});
  EXPECT_DOUBLE_EQ(net.sample_delay(d0, d0, 0), 50e-6);
  // Other zones keep the global default.
  EXPECT_DOUBLE_EQ(net.sample_delay(r0, r0, 0), 1e-6);
}

TEST_F(NetworkTest, DeliverSchedulesArrival) {
  double arrived_at = -1;
  net.deliver(d0, r0, 128, [&] { arrived_at = loop.now(); });
  loop.run();
  EXPECT_GT(arrived_at, 0.3e-3);
  EXPECT_LT(arrived_at, 0.7e-3);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_delivered(), 128u);
}

TEST_F(NetworkTest, MissingLinkThrows) {
  const sim::HostIndex f0 = net.register_host("f0", "frontier");
  EXPECT_THROW((void)net.sample_delay(d0, f0, 0), Error);
}

}  // namespace
