// Data-plane tests: replica catalog (finite stores, LRU eviction,
// pinning, lineage), fair-share transfer engine (shared links,
// concurrency caps, retries, full replans), DataManager's staging call
// (withdrawal on failure and cancel, a seeded fuzz of the call),
// locality-aware placement, and workflow dataset wiring.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/core/session.hpp"
#include "ripple/data/catalog.hpp"
#include "ripple/data/placement_advisor.hpp"
#include "ripple/data/transfer_engine.hpp"
#include "ripple/metrics/counters.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

// ---------------------------------------------------------------------------
// ReplicaCatalog
// ---------------------------------------------------------------------------

TEST(Catalog, FiniteStoreEvictsLeastRecentlyUsed) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  catalog.register_dataset("a", 40.0, "z");
  catalog.register_dataset("b", 40.0, "z");
  catalog.touch("a", "z");  // b is now the LRU replica

  catalog.register_dataset("c", 40.0, "z");  // needs 40, free is 20
  EXPECT_FALSE(catalog.available_in("b", "z"));
  EXPECT_TRUE(catalog.available_in("a", "z"));
  EXPECT_TRUE(catalog.available_in("c", "z"));
  EXPECT_EQ(catalog.evictions(), 1u);
  EXPECT_EQ(catalog.eviction_log(),
            (std::vector<std::string>{"z/b"}));
  EXPECT_DOUBLE_EQ(catalog.store("z").used, 80.0);
}

TEST(Catalog, PinnedReplicasSurviveEvictionPressure) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  catalog.register_dataset("a", 40.0, "z");
  catalog.register_dataset("b", 40.0, "z");
  catalog.pin("a", "z");

  // 70 bytes needed: only b (40) is evictable -> impossible, and the
  // pinned a is skipped despite being the LRU replica. The failed
  // attempt leaves a partial eviction trail (b is gone).
  EXPECT_THROW(catalog.register_dataset("big", 70.0, "z"), Error);
  EXPECT_TRUE(catalog.available_in("a", "z"));
  EXPECT_FALSE(catalog.available_in("b", "z"));
  // 60 bytes now fit next to the pinned 40.
  catalog.register_dataset("c", 60.0, "z");
  EXPECT_TRUE(catalog.available_in("a", "z"));

  catalog.unpin("a", "z");
  EXPECT_THROW(catalog.unpin("a", "z"), Error);  // not pinned anymore
}

TEST(Catalog, LineageConsumersProtectIntermediates) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  // Lineage may be declared before the dataset exists.
  catalog.add_consumers("mid", 2);
  catalog.register_dataset("mid", 60.0, "z");
  EXPECT_EQ(catalog.consumers_left("mid"), 2u);

  // Protected: eviction pressure cannot reclaim it.
  EXPECT_THROW(catalog.register_dataset("big", 80.0, "z"), Error);

  catalog.consume_done("mid");
  EXPECT_THROW(catalog.register_dataset("big", 80.0, "z"), Error);
  catalog.consume_done("mid");  // last consumer finished
  catalog.register_dataset("big", 80.0, "z");
  EXPECT_FALSE(catalog.available_in("mid", "z"));
  EXPECT_THROW(catalog.consume_done("mid"), Error);
}

TEST(Catalog, CrossTenantConsumersSurviveOwnersEvictionPressure) {
  // Regression (multi-tenant make_room): a dataset whose only remaining
  // protection belongs to ANOTHER tenant must not be evictable by the
  // owning tenant's store pressure — protection is global, summed over
  // all tenants' pins and lineage references.
  data::ReplicaCatalog catalog;
  catalog.add_store("edge", 100.0);
  catalog.register_dataset("warm", 100.0, "edge");

  // Tenant B pins the replica; tenant A's exact-fit reservation must
  // fail without tearing the replica down.
  catalog.pin("warm", "edge", "tenantB");
  EXPECT_FALSE(catalog.reserve("edge", 100.0, "tenantA"));
  EXPECT_TRUE(catalog.available_in("warm", "edge"));
  catalog.unpin("warm", "edge", "tenantB");

  // A foreign lineage reference alone protects it just the same.
  catalog.add_consumers("warm", 1, "tenantB");
  EXPECT_FALSE(catalog.reserve("edge", 100.0, "tenantA"));
  EXPECT_TRUE(catalog.available_in("warm", "edge"));

  // Once tenant B's consumer finishes, the same exact-fit reservation
  // succeeds by evicting the now-unprotected replica.
  catalog.consume_done("warm", "tenantB");
  EXPECT_TRUE(catalog.reserve("edge", 100.0, "tenantA"));
  EXPECT_FALSE(catalog.available_in("warm", "edge"));
  catalog.release_reservation("edge", 100.0, "tenantA");
}

TEST(Catalog, TenantStoreQuotaFailsReservationWithoutEvicting) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 200.0);
  catalog.set_tenant_quota("z", "small", 50.0);
  catalog.register_dataset("other", 100.0, "z");  // someone else's bytes

  // Over-quota: rejected before make_room runs, so the resident
  // replica is untouched even though eviction could have made room.
  EXPECT_FALSE(catalog.reserve("z", 80.0, "small"));
  EXPECT_TRUE(catalog.available_in("other", "z"));

  // Within quota: charged to the tenant through commit.
  EXPECT_TRUE(catalog.reserve("z", 40.0, "small"));
  catalog.register_dataset("mine", 40.0, "elsewhere");
  catalog.commit_replica("mine", "z", "small");
  EXPECT_DOUBLE_EQ(catalog.tenant_usage("z", "small"), 40.0);
  // The next reservation would exceed the 50-byte cap.
  EXPECT_FALSE(catalog.reserve("z", 20.0, "small"));
  // An untenanted caller is not constrained by anyone's quota.
  EXPECT_TRUE(catalog.reserve("z", 20.0));
  catalog.release_reservation("z", 20.0);
}

TEST(Catalog, ContentAddressingSharesReplicasAcrossNames) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  // Two tenants publish the same content under their own names: one
  // canonical dataset, two aliases, one replica's worth of bytes.
  catalog.register_dataset("t0/part", 60.0, "z", "cid:part");
  catalog.register_dataset("t1/part", 60.0, "z", "cid:part");
  EXPECT_EQ(catalog.canonical("t1/part"), "t0/part");
  EXPECT_TRUE(catalog.available_in("t1/part", "z"));
  EXPECT_DOUBLE_EQ(catalog.store("z").used, 60.0);

  // Lineage and pins resolve through the alias to the canonical entry.
  catalog.add_consumers("t1/part", 1, "tenant1");
  EXPECT_EQ(catalog.consumers_left("t0/part"), 1u);
  catalog.pin("t1/part", "z", "tenant1");
  catalog.unpin("t0/part", "z", "tenant1");
  catalog.consume_done("t0/part", "tenant1");
  EXPECT_EQ(catalog.consumers_left("t1/part"), 0u);

  // A name bound to one content id cannot re-bind to another.
  EXPECT_THROW(catalog.register_dataset("t1/part", 60.0, "z", "cid:other"),
               Error);
}

TEST(Catalog, EarlyLineageOfAnAliasProtectsItsCanonicalDataset) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  catalog.register_dataset("t0/part", 60.0, "z", "cid:part");
  // Two tenants' consumers of an alias not registered yet; one of them
  // finishes before the alias exists.
  catalog.add_consumers("t1/part", 1, "t1");
  catalog.add_consumers("t1/part", 2, "t2");
  catalog.consume_done("t1/part", "t2");
  EXPECT_EQ(catalog.consumers_left("t1/part"), 2u);
  EXPECT_EQ(catalog.consumers_left("t0/part"), 0u);
  catalog.register_dataset("t1/part", 60.0, "w", "cid:part");
  EXPECT_EQ(catalog.consumers_left("t0/part"), 2u);
  EXPECT_FALSE(catalog.reserve("z", 80.0));  // protected: nothing to evict
  EXPECT_THROW(catalog.consume_done("t0/part", "t3"), Error);
  catalog.consume_done("t0/part", "t1");
  catalog.consume_done("t1/part", "t2");
  EXPECT_EQ(catalog.consumers_left("t1/part"), 0u);
  EXPECT_THROW(catalog.consume_done("t0/part", "t1"), Error);
  EXPECT_THROW(catalog.consume_done("ghost", "t1"), Error);
  EXPECT_TRUE(catalog.reserve("z", 80.0));
  EXPECT_EQ(catalog.eviction_log(), (std::vector<std::string>{"z/t0/part"}));
}

TEST(Catalog, ReservationsHoldSpaceUntilCommitOrRelease) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  catalog.register_dataset("in-flight", 60.0, "elsewhere");

  EXPECT_TRUE(catalog.reserve("z", 60.0));
  EXPECT_DOUBLE_EQ(catalog.store("z").reserved, 60.0);
  EXPECT_FALSE(catalog.reserve("z", 50.0));  // 40 free, nothing to evict

  catalog.commit_replica("in-flight", "z");
  EXPECT_TRUE(catalog.available_in("in-flight", "z"));
  EXPECT_DOUBLE_EQ(catalog.store("z").reserved, 0.0);
  EXPECT_DOUBLE_EQ(catalog.store("z").used, 60.0);

  EXPECT_TRUE(catalog.reserve("z", 30.0));
  catalog.release_reservation("z", 30.0);
  EXPECT_DOUBLE_EQ(catalog.store("z").reserved, 0.0);
}

// ---------------------------------------------------------------------------
// TransferEngine
// ---------------------------------------------------------------------------

TEST(TransferEngineTest, FairShareSplitsLinkBandwidth) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));

  double done_a = -1.0;
  double done_b = -1.0;
  engine.transfer("a", {"src"}, "dst", 10e9, [&](bool ok, sim::Duration) {
    EXPECT_TRUE(ok);
    done_a = loop.now();
  });
  loop.call_after(5.0, [&] {
    engine.transfer("b", {"src"}, "dst", 10e9, [&](bool ok, sim::Duration) {
      EXPECT_TRUE(ok);
      done_b = loop.now();
    });
  });
  loop.run();
  // a runs alone for 5 s (5 GB), shares for 10 s (5 GB) -> done at 15;
  // b then has the link to itself for its remaining 5 GB -> done at 20.
  EXPECT_NEAR(done_a, 15.0, 1e-9);
  EXPECT_NEAR(done_b, 20.0, 1e-9);
  EXPECT_EQ(engine.transfers_completed(), 2u);
  EXPECT_DOUBLE_EQ(engine.bytes_moved(), 20e9);
}

TEST(TransferEngineTest, ConcurrencyCapQueuesExcessTransfers) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_link_concurrency("src", "dst", 1);

  double done_a = -1.0;
  double done_b = -1.0;
  engine.transfer("a", {"src"}, "dst", 1e9,
                  [&](bool, sim::Duration) { done_a = loop.now(); });
  engine.transfer("b", {"src"}, "dst", 1e9,
                  [&](bool, sim::Duration) { done_b = loop.now(); });
  EXPECT_EQ(engine.active_on("src", "dst"), 1u);
  EXPECT_EQ(engine.queued_on("src", "dst"), 1u);
  loop.run();
  // Serialized at full bandwidth instead of halved in parallel.
  EXPECT_NEAR(done_a, 1.0, 1e-9);
  EXPECT_NEAR(done_b, 2.0, 1e-9);
}

TEST(TransferEngineTest, FailuresRetryUpToBudget) {
  sim::EventLoop loop;
  common::Rng rng(11);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.1));
  engine.set_failure(0.97, 2);

  int fired = 0;
  engine.transfer("flaky", {"src"}, "dst", 1e9,
                  [&](bool, sim::Duration) { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.transfers_started(), 1u);
  EXPECT_EQ(engine.transfers_completed() + engine.transfers_failed(), 1u);
  if (engine.transfers_failed() == 1) {
    EXPECT_EQ(engine.retries(), 2u);  // budget exhausted before giving up
  }
}

TEST(TransferEngineTest, CancelStopsTransferWithoutCallback) {
  sim::EventLoop loop;
  common::Rng rng(3);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));

  bool fired = false;
  const auto id = engine.transfer(
      "doomed", {"src"}, "dst", 10e9,
      [&](bool, sim::Duration) { fired = true; });
  loop.call_after(1.0, [&] { EXPECT_TRUE(engine.cancel(id)); });
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.transfers_cancelled(), 1u);
  EXPECT_EQ(engine.transfers_completed(), 0u);
}

TEST(TransferEngineTest, ReplanAllReRatesLiveFlows) {
  sim::EventLoop loop;
  data::TransferEngine engine(loop, common::Rng(1));
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("a", "b", 100.0);
  double elapsed = -1.0;
  engine.transfer("d", {"a"}, "b", 1000.0, [&](bool ok, sim::Duration e) {
    if (ok) elapsed = e;
  });
  EXPECT_EQ(engine.replan_all(), 0u);  // still in setup, nothing flowing
  loop.run_until(5.0);  // 500 of 1000 bytes moved at 100 B/s
  engine.set_bandwidth("a", "b", 250.0);
  EXPECT_EQ(engine.replan_all(), 1u);
  loop.run();
  // Bandwidth setters are config-only; the tick is what re-rated the
  // flow: 5 s at 100 B/s, then 500 bytes at 250 B/s.
  EXPECT_NEAR(elapsed, 7.0, 1e-9);
}

struct TickRun {
  std::vector<std::string> log;
  std::uint64_t hash = 0;
  std::vector<std::size_t> replanned;
  std::uint64_t span_hash = 0;
  std::size_t replan_spans = 0;
};

/// Transfers over 28 links with two mid-flight "telemetry ticks" that
/// change the default bandwidth and replan every link.
TickRun run_ticks(bool traced) {
  sim::EventLoop loop;
  data::TransferEngine engine(loop, common::Rng(99));
  metrics::Tracer tracer;
  metrics::Counters counters;
  if (traced) {
    tracer.set_enabled(true);
    engine.set_trace(&tracer, &counters);
  }
  engine.set_setup_latency(common::Distribution::constant(0.05));
  engine.set_default_bandwidth(100.0);

  constexpr int kZones = 8;
  int done = 0;
  int id = 0;
  for (int a = 0; a < kZones; ++a) {
    for (int b = a + 1; b < kZones; ++b) {
      for (int k = 0; k < 3; ++k) {
        engine.transfer("d" + std::to_string(id++), {"z" + std::to_string(a)},
                        "z" + std::to_string(b), 500.0 + 40.0 * k,
                        [&done](bool ok, sim::Duration) { done += ok; });
      }
    }
  }
  TickRun out;
  loop.run_until(2.0);
  engine.set_default_bandwidth(150.0);
  out.replanned.push_back(engine.replan_all());
  loop.run_until(4.0);
  engine.set_default_bandwidth(80.0);
  out.replanned.push_back(engine.replan_all());
  loop.run();
  EXPECT_EQ(done, id);
  out.log = engine.completion_log();
  out.hash = engine.completion_hash();
  out.span_hash = tracer.span_log_hash();
  for (const metrics::Span& span : tracer.spans()) {
    out.replan_spans += span.name == "replan" ? 1 : 0;
  }
  return out;
}

TEST(TransferEngineTest, ReplanAllTicksReproduceAcrossReruns) {
  const TickRun first = run_ticks(false);
  EXPECT_EQ(first.log.size(), 84u);
  ASSERT_EQ(first.replanned.size(), 2u);
  EXPECT_EQ(first.replanned[0], 84u);  // every transfer is flowing
  // Pinned: any change to the engine's schedule moves these.
  EXPECT_EQ(first.hash, 0x1bca64b11fa348bfull) << std::hex << first.hash;
  const TickRun rerun = run_ticks(false);
  EXPECT_EQ(rerun.log, first.log);
  EXPECT_EQ(rerun.hash, first.hash);
  EXPECT_EQ(rerun.replanned, first.replanned);
  // Tracing only observes: same completions, one "replan" span per link
  // per tick, and a span log that reruns bit for bit.
  const TickRun traced = run_ticks(true);
  EXPECT_EQ(traced.log, first.log);
  EXPECT_EQ(traced.replan_spans, 2u * 28u);
  EXPECT_EQ(traced.span_hash, 0x5dbaf8f7df5d0fcdull)
      << std::hex << traced.span_hash;
  EXPECT_EQ(run_ticks(true).span_hash, traced.span_hash);
}

TEST(TransferEngineTest, ReplanAllSpansFollowLinkNameOrder) {
  // Links are first used out of name order, one of them from the zone
  // that sorts second, and one drains before the tick. A traced tick
  // still emits one "replan" span per link that has carried a transfer,
  // idle or not, in (zone, zone) name order; links only configured or
  // failed, never used, get none.
  sim::EventLoop loop;
  data::TransferEngine engine(loop, common::Rng(3));
  metrics::Tracer tracer;
  metrics::Counters counters;
  tracer.set_enabled(true);
  engine.set_trace(&tracer, &counters);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_default_bandwidth(100.0);
  engine.set_bandwidth("e", "f", 50.0);
  engine.set_link_concurrency("g", "h", 2);
  engine.fail_link("x", "y");
  const auto ignore = [](bool, sim::Duration) {};
  engine.transfer("late", {"z2"}, "z3", 1000.0, ignore);
  engine.transfer("back", {"b"}, "a", 1000.0, ignore);
  engine.transfer("short", {"k"}, "d", 10.0, ignore);  // lands at 0.1 s
  engine.transfer("mid", {"m"}, "c", 1000.0, ignore);
  engine.transfer("mid2", {"c"}, "m", 1000.0, ignore);
  loop.run_until(1.0);
  EXPECT_EQ(engine.replan_all(), 4u);
  std::vector<std::string> order;
  for (const metrics::Span& span : tracer.spans()) {
    if (span.name != "replan") continue;
    ASSERT_EQ(span.args.size(), 1u);
    order.push_back(strutil::cat(span.entity, " ", span.args[0].second));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a~b 1", "c~m 2", "d~k 0",
                                             "z2~z3 1"}));
}

TEST(Catalog, ExactFitReserveSurvivesFloatChurn) {
  // Accounting drift regression: make_room used exact comparisons while
  // release/commit tolerated ULP drift, so after a long commit/drop
  // churn an exact-fit reservation could evict one replica too many (or
  // fail admission outright).
  data::ReplicaCatalog catalog;
  const double unit = 0.1;  // not a binary fraction: every sum rounds
  catalog.add_store("z", 1000 * unit);
  catalog.register_dataset("keep", 400 * unit, "z");
  catalog.register_dataset("churn-a", 333 * unit, "elsewhere");
  catalog.register_dataset("churn-b", 251 * unit, "elsewhere");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(catalog.reserve("z", 333 * unit));
    catalog.commit_replica("churn-a", "z");
    ASSERT_TRUE(catalog.reserve("z", 251 * unit));
    catalog.commit_replica("churn-b", "z");
    ASSERT_TRUE(catalog.drop_replica("churn-b", "z"));
    ASSERT_TRUE(catalog.drop_replica("churn-a", "z"));
  }
  // Nominally exactly 600 units are free. Whatever ULP dust the churn
  // left behind, the exact-fit reservation must neither fail nor evict
  // the resident replica.
  EXPECT_TRUE(catalog.reserve("z", 600 * unit));
  EXPECT_TRUE(catalog.available_in("keep", "z"));
  EXPECT_EQ(catalog.evictions(), 0u);
}

// ---------------------------------------------------------------------------
// Multi-source striped transfers
// ---------------------------------------------------------------------------

TEST(TransferEngineTest, StripedTransferSplitsAcrossDisjointLinks) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("s1", "dst", 1e9);
  engine.set_bandwidth("s2", "dst", 1e9);
  engine.set_bandwidth("s3", "dst", 1e9);

  double done_at = -1.0;
  engine.transfer("wide", {"s1", "s2", "s3"}, "dst", 30e9,
                  [&](bool ok, sim::Duration) {
                    EXPECT_TRUE(ok);
                    done_at = loop.now();
                  });
  EXPECT_EQ(engine.active_on("s1", "dst"), 1u);
  EXPECT_EQ(engine.active_on("s2", "dst"), 1u);
  EXPECT_EQ(engine.active_on("s3", "dst"), 1u);
  loop.run();
  // Three disjoint 1 GB/s links carry 10 GB each: 10 s, not the 30 s a
  // single source would take.
  EXPECT_NEAR(done_at, 10.0, 1e-9);
  EXPECT_EQ(engine.transfers_started(), 1u);
  EXPECT_EQ(engine.transfers_completed(), 1u);
  EXPECT_EQ(engine.stripes_started(), 3u);
  EXPECT_DOUBLE_EQ(engine.bytes_moved(), 30e9);
  // The parent is logged exactly once.
  EXPECT_EQ(engine.completion_log(), (std::vector<std::string>{"wide"}));
}

TEST(TransferEngineTest, StripedSplitIsBandwidthProportional) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("fast", "dst", 2e9);
  engine.set_bandwidth("slow", "dst", 1e9);

  double done_at = -1.0;
  engine.transfer("skewed", {"fast", "slow"}, "dst", 30e9,
                  [&](bool, sim::Duration) { done_at = loop.now(); });
  loop.run();
  // Shares proportional to bandwidth (20 GB over 2 GB/s, 10 GB over
  // 1 GB/s): both stripes land at 10 s — the aggregate-rate optimum.
  EXPECT_NEAR(done_at, 10.0, 1e-9);
}

TEST(TransferEngineTest, StripedSplitDiscountsCongestedLinks) {
  // Source A has an idle 1 GB/s link; source B's equal link already
  // carries nine transfers. A bandwidth-proportional 50/50 split would
  // gate the parent on B's 0.1 GB/s fair share (~150 s for 30 GB); the
  // contention-aware split hands B only its achievable share, so the
  // transfer lands close to the idle-link optimum.
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("a", "dst", 1e9);
  engine.set_bandwidth("b", "dst", 1e9);
  for (int i = 0; i < 9; ++i) {
    engine.transfer("noise-" + std::to_string(i), {"b"}, "dst", 500e9,
                    [](bool, sim::Duration) {});
  }
  double done_at = -1.0;
  engine.transfer("hot", {"a", "b"}, "dst", 30e9,
                  [&](bool ok, sim::Duration) {
                    EXPECT_TRUE(ok);
                    done_at = loop.now();
                  });
  loop.run_until(200.0);
  // Effective rates at admission: a = 1 GB/s, b = 0.1 GB/s -> a hauls
  // ~27.3 GB, b ~2.7 GB, both landing near 27.3 s.
  EXPECT_GT(done_at, 0.0);
  EXPECT_LT(done_at, 35.0);
}

TEST(TransferEngineTest, StripeFailureFailsOverToSurvivors) {
  // A dead stripe's share moves to a surviving stripe instead of
  // failing the transfer: replicas must add reliability, not risk.
  // Across seeds, every run must satisfy the invariants, and at least
  // one run must demonstrate a successful failover (one stripe dies,
  // the other carries its bytes, the full payload still commits).
  bool saw_successful_failover = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::EventLoop loop;
    common::Rng rng(seed);
    data::TransferEngine engine(loop, rng);
    engine.set_setup_latency(common::Distribution::constant(0.1));
    engine.set_bandwidth("s1", "dst", 1e9);
    engine.set_bandwidth("s2", "dst", 1e9);
    engine.set_failure(0.5, 0);

    int fired = 0;
    bool outcome = false;
    engine.transfer("contested", {"s1", "s2"}, "dst", 10e9,
                    [&](bool ok, sim::Duration) {
                      ++fired;
                      outcome = ok;
                    });
    loop.run();
    EXPECT_EQ(fired, 1) << "seed " << seed;
    EXPECT_EQ(engine.transfers_started(), 1u);
    EXPECT_EQ(engine.transfers_completed() + engine.transfers_failed(), 1u);
    EXPECT_EQ(engine.active_on("s1", "dst"), 0u);
    EXPECT_EQ(engine.active_on("s2", "dst"), 0u);
    if (outcome) {
      // Success must mean the *whole* payload moved, failover or not.
      EXPECT_DOUBLE_EQ(engine.bytes_moved(), 10e9) << "seed " << seed;
      EXPECT_EQ(engine.completion_log(),
                (std::vector<std::string>{"contested"}));
      if (engine.stripe_failovers() > 0) saw_successful_failover = true;
    } else {
      // Failure only when every stripe (and every failover) died.
      EXPECT_TRUE(engine.completion_log().empty()) << "seed " << seed;
    }
  }
  EXPECT_TRUE(saw_successful_failover);
}

TEST(TransferEngineTest, StripedCancelAbortsEveryStripe) {
  sim::EventLoop loop;
  common::Rng rng(3);
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("s1", "dst", 1e9);
  engine.set_bandwidth("s2", "dst", 1e9);

  bool fired = false;
  const auto id = engine.transfer(
      "doomed", {"s1", "s2"}, "dst", 20e9,
      [&](bool, sim::Duration) { fired = true; });
  loop.call_after(1.0, [&] { EXPECT_TRUE(engine.cancel(id)); });
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.transfers_cancelled(), 1u);
  EXPECT_EQ(engine.active_on("s1", "dst"), 0u);
  EXPECT_EQ(engine.active_on("s2", "dst"), 0u);
}

TEST(TransferEngineTest, StripedSingleSourceDegradesToPlainTransfer) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));

  double done_at = -1.0;
  engine.transfer("solo", {"src", "src"}, "dst", 5e9,
                  [&](bool ok, sim::Duration) {
                    EXPECT_TRUE(ok);
                    done_at = loop.now();
                  });
  loop.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
  EXPECT_EQ(engine.stripes_started(), 0u);  // one source: no stripes
}

// ---------------------------------------------------------------------------
// DataManager facade
// ---------------------------------------------------------------------------

class DataPlaneFacadeTest : public ::testing::Test {
 protected:
  Runtime runtime{17};
  DataManager data{runtime};
};

TEST_F(DataPlaneFacadeTest, StageEvictsIntoFiniteStore) {
  data.add_store("delta", 10e9);
  data.register_dataset("old1", 4e9, "delta");
  data.register_dataset("old2", 4e9, "delta");
  data.register_dataset("incoming", 8e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);

  bool ok = false;
  data.stage({{"incoming", "delta"}},
             [&](bool result, const std::string&) { ok = result; });
  runtime.loop().run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(data.available_in("incoming", "delta"));
  EXPECT_FALSE(data.available_in("old1", "delta"));
  EXPECT_FALSE(data.available_in("old2", "delta"));
  EXPECT_EQ(data.catalog().eviction_log(),
            (std::vector<std::string>{"delta/old1", "delta/old2"}));
}

TEST_F(DataPlaneFacadeTest, StageFailsWhenStoreCannotFit) {
  data.add_store("tiny", 1e9);
  data.register_dataset("blob", 8e9, "lab");
  bool ok = true;
  data.stage({{"blob", "tiny"}},
             [&](bool result, const std::string&) { ok = result; });
  runtime.loop().run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(data.transfers(), 0u);
}

TEST_F(DataPlaneFacadeTest, SourceReplicaPinnedDuringFlight) {
  data.add_store("lab", 10e9);
  data.register_dataset("feed", 8e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);
  bool staged = false;
  data.stage({{"feed", "delta"}},
             [&](bool ok, const std::string&) { staged = ok; });
  runtime.loop().run_until(1.0);
  // Mid-flight: the source replica must resist eviction pressure.
  EXPECT_GT(data.catalog().pins("feed", "lab"), 0u);
  EXPECT_THROW(data.register_dataset("other", 4e9, "lab"), Error);
  runtime.loop().run();
  EXPECT_TRUE(staged);
  EXPECT_EQ(data.catalog().pins("feed", "lab"), 0u);
}

TEST_F(DataPlaneFacadeTest, StageFailureWithdrawsSiblingsButNotSharers) {
  data.register_dataset("shared", 10e9, "lab");
  data.register_dataset("solo", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);

  int batch_a_calls = 0;
  std::string batch_a_failed;
  data.stage({{"missing", "delta"}, {"shared", "delta"}, {"solo", "delta"}},
             [&](bool ok, const std::string& failed) {
               ++batch_a_calls;
               EXPECT_FALSE(ok);
               batch_a_failed = failed;
             });
  int batch_b_calls = 0;
  data.stage({{"shared", "delta"}}, [&](bool ok, const std::string&) {
    ++batch_b_calls;
    EXPECT_TRUE(ok);
  });
  runtime.loop().run();

  EXPECT_EQ(batch_a_calls, 1);
  EXPECT_EQ(batch_a_failed, "missing");
  EXPECT_EQ(batch_b_calls, 1);
  // The shared transfer survived for batch B; the batch-private solo
  // transfer was cancelled instead of running on untracked.
  EXPECT_TRUE(data.available_in("shared", "delta"));
  EXPECT_FALSE(data.available_in("solo", "delta"));
  EXPECT_EQ(data.transfers(), 2u);
  EXPECT_EQ(data.cancelled_transfers(), 1u);
}

TEST_F(DataPlaneFacadeTest, StageFailsCleanlyWhenLastReplicaEvicted) {
  data.add_store("lab", 10e9);
  data.register_dataset("victim", 6e9, "lab");
  data.register_dataset("squatter", 8e9, "elsewhere");
  // Staging squatter into lab evicts victim's only replica.
  bool squatter_ok = false;
  data.stage({{"squatter", "lab"}},
             [&](bool ok, const std::string&) { squatter_ok = ok; });
  runtime.loop().run();
  ASSERT_TRUE(squatter_ok);
  ASSERT_TRUE(data.dataset("victim").zones.empty());

  // A stage of the orphaned dataset fails via its callback — no throw.
  bool victim_ok = true;
  data.stage({{"victim", "delta"}},
             [&](bool ok, const std::string&) { victim_ok = ok; });
  runtime.loop().run();
  EXPECT_FALSE(victim_ok);
}

TEST_F(DataPlaneFacadeTest, CancelStageAbortsInFlightTransfers) {
  data.register_dataset("bulk", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);
  bool fired = false;
  const DataManager::StageTicket ticket = data.stage(
      {{"bulk", "delta"}}, [&](bool, const std::string&) { fired = true; });
  runtime.loop().run_until(1.0);
  EXPECT_TRUE(data.cancel_stage(ticket));
  runtime.loop().run();
  EXPECT_FALSE(fired);  // cancelled calls never call back
  EXPECT_EQ(data.cancelled_transfers(), 1u);
  EXPECT_FALSE(data.available_in("bulk", "delta"));
  // The reservation and the source pin were returned.
  EXPECT_DOUBLE_EQ(data.catalog().store("delta").reserved, 0.0);
  EXPECT_EQ(data.catalog().pins("bulk", "lab"), 0u);
}

TEST_F(DataPlaneFacadeTest, StageStripesAcrossEveryReplica) {
  data.register_dataset("wide", 30e9, "lab");
  data.register_dataset("wide", 30e9, "archive");
  data.set_bandwidth("lab", "delta", 1e9);
  data.set_bandwidth("archive", "delta", 1e9);
  data.set_setup_latency(common::Distribution::constant(0.0));

  bool ok = false;
  double done_at = -1.0;
  data.stage({{"wide", "delta"}}, [&](bool result, const std::string&) {
    ok = result;
    done_at = runtime.loop().now();
  });
  runtime.loop().run_until(1.0);
  // Mid-flight both source replicas are pinned (each feeds a stripe).
  EXPECT_GT(data.catalog().pins("wide", "lab"), 0u);
  EXPECT_GT(data.catalog().pins("wide", "archive"), 0u);
  runtime.loop().run();
  EXPECT_TRUE(ok);
  // Two disjoint 1 GB/s links: 15 s instead of a single source's 30 s.
  EXPECT_NEAR(done_at, 15.0, 1e-9);
  EXPECT_EQ(data.transfers(), 1u);
  EXPECT_EQ(data.engine().stripes_started(), 2u);
  EXPECT_EQ(data.catalog().pins("wide", "lab"), 0u);
  EXPECT_EQ(data.catalog().pins("wide", "archive"), 0u);
}

TEST_F(DataPlaneFacadeTest, CancelBeforeAPostedOutcomeRunsSilencesTheCall) {
  // Resident and unknown targets resolve inside stage() but report on a
  // later loop turn; a cancel in between wins.
  data.register_dataset("here", 1e9, "delta");
  int fired = 0;
  const auto count = [&](bool, const std::string&) { ++fired; };
  const DataManager::StageTicket resident =
      data.stage({{"here", "delta"}}, count);
  const DataManager::StageTicket unknown =
      data.stage({{"ghost", "delta"}}, count);
  const DataManager::StageTicket both =
      data.stage({{"here", "delta"}, {"ghost", "delta"}}, count);
  EXPECT_TRUE(data.cancel_stage(resident));
  EXPECT_TRUE(data.cancel_stage(unknown));
  EXPECT_TRUE(data.cancel_stage(both));
  runtime.loop().run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(data.transfers(), 0u);
}

TEST_F(DataPlaneFacadeTest, OneCallMayNameADatasetTwice) {
  data.register_dataset("twin", 4e9, "lab");
  data.register_dataset("here", 1e9, "delta");
  data.set_bandwidth("lab", "delta", 1e9);
  int calls = 0;
  bool result = false;
  data.stage({{"twin", "delta"}, {"here", "delta"}, {"twin", "delta"}},
             [&](bool ok, const std::string& failed) {
               ++calls;
               result = ok;
               EXPECT_EQ(failed, "");
             });
  runtime.loop().run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(result);
  EXPECT_EQ(data.transfers(), 1u);  // both entries rode one transfer

  // A failing call withdraws both entries of its twin: the transfer
  // nobody else waits on is cancelled and gives everything back.
  data.register_dataset("pair", 4e9, "lab");
  std::string failed_name;
  data.stage({{"pair", "delta"}, {"missing", "delta"}, {"pair", "delta"}},
             [&](bool ok, const std::string& failed) {
               EXPECT_FALSE(ok);
               failed_name = failed;
             });
  runtime.loop().run();
  EXPECT_EQ(failed_name, "missing");
  EXPECT_EQ(data.transfers(), 2u);
  EXPECT_EQ(data.cancelled_transfers(), 1u);
  EXPECT_FALSE(data.available_in("pair", "delta"));
  EXPECT_DOUBLE_EQ(data.catalog().store("delta").reserved, 0.0);
  EXPECT_EQ(data.catalog().pins("pair", "lab"), 0u);
}

TEST_F(DataPlaneFacadeTest, CancelStageOfSettledUnknownOrZeroTicketIsFalse) {
  data.register_dataset("here", 1e9, "delta");
  const auto ignore = [](bool, const std::string&) {};
  const DataManager::StageTicket landed =
      data.stage({{"here", "delta"}}, ignore);
  const DataManager::StageTicket failed =
      data.stage({{"ghost", "delta"}}, ignore);
  ASSERT_NE(landed, 0u);
  ASSERT_NE(failed, 0u);
  runtime.loop().run();
  EXPECT_FALSE(data.cancel_stage(landed));
  EXPECT_FALSE(data.cancel_stage(failed));
  EXPECT_FALSE(data.cancel_stage(failed + 1000));  // never issued
  EXPECT_FALSE(data.cancel_stage(0));
  // A cancelled ticket is settled too.
  const DataManager::StageTicket dropped =
      data.stage({{"here", "delta"}}, ignore);
  EXPECT_TRUE(data.cancel_stage(dropped));
  EXPECT_FALSE(data.cancel_stage(dropped));
  // An empty call has nothing to cancel: no ticket, and it still
  // reports success.
  bool empty_ok = false;
  EXPECT_EQ(data.stage({}, [&](bool ok, const std::string&) { empty_ok = ok; }),
            0u);
  runtime.loop().run();
  EXPECT_TRUE(empty_ok);
}

TEST_F(DataPlaneFacadeTest, OneCallStagesEachTargetIntoItsOwnZone) {
  // The stage-out shape: every product may go somewhere else.
  data.register_dataset("out-a", 2e9, "delta");
  data.register_dataset("out-b", 3e9, "delta");
  data.set_bandwidth("delta", "lab", 1e9);
  data.set_bandwidth("delta", "archive", 1e9);
  int calls = 0;
  bool result = false;
  data.stage({{"out-a", "lab"}, {"out-b", "archive"}, {"out-a", "delta"}},
             [&](bool ok, const std::string&) {
               ++calls;
               result = ok;
             });
  runtime.loop().run();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(result);
  EXPECT_TRUE(data.available_in("out-a", "lab"));
  EXPECT_TRUE(data.available_in("out-b", "archive"));
  EXPECT_FALSE(data.available_in("out-b", "lab"));
  EXPECT_EQ(data.transfers(), 2u);
}

/// One seeded fuzz run of the staging call: calls of 0-5 targets into
/// finite stores (with aliases, unknown names and tenants), cancels of
/// any issued ticket, prefetches, links going down for a while and store
/// crashes, against a lossy transfer engine. Every dataset keeps a copy
/// in an archive zone without a store, so store crashes and evictions
/// never orphan it. Checks the call's contract as it goes and returns
/// the callback log.
std::vector<std::string> run_stage_fuzz(std::uint64_t seed, int operations) {
  Runtime runtime{seed};
  DataManager data{runtime};
  common::Rng rng = common::Rng(seed).fork("stage-fuzz");
  data.set_default_bandwidth(1e9);
  data.set_setup_latency(common::Distribution::lognormal(0.2, 0.5, 0.01));
  data.engine().set_failure(0.1, 1);
  const std::vector<std::string> zones = {"a", "b", "c", "d"};
  for (const auto& zone : zones) data.add_store(zone, 40e9);
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };

  std::vector<std::string> names;
  for (int i = 0; i < 24; ++i) {
    const std::string name = "ds" + std::to_string(i);
    const std::string content = "cid" + std::to_string(i);
    const double bytes = rng.uniform(1e9, 12e9);
    data.register_dataset(name, bytes, "archive", content);
    if (rng.chance(0.5)) data.register_dataset(name, bytes, pick(zones));
    names.push_back(name);
    if (i % 8 == 0) {  // another tenant's name for the same content
      names.push_back("alias" + std::to_string(i));
      data.register_dataset(names.back(), bytes, pick(zones), content);
    }
  }
  std::vector<std::string> requested = names;
  requested.push_back("ghost");  // never registered
  const std::vector<std::string> tenants = {"", "t1", "t2"};

  struct Call {
    std::vector<std::string> datasets;
    int callbacks = 0;
    bool cancelled = false;
  };
  std::vector<Call> calls;
  std::vector<DataManager::StageTicket> tickets;
  std::vector<std::string> log;
  std::vector<std::string> link_ends = zones;
  link_ends.push_back("archive");

  for (int op = 0; op < operations; ++op) {
    // Some operations land in the same instant as the previous one,
    // before its posted outcomes run.
    if (rng.chance(0.8)) {
      runtime.loop().run_until(runtime.loop().now() + rng.exponential(0.5));
    }
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55) {
      const auto count = rng.uniform_int(0, 5);
      std::vector<DataManager::StageTarget> targets;
      Call call;
      for (std::int64_t i = 0; i < count; ++i) {
        targets.push_back({pick(requested), pick(zones)});
        call.datasets.push_back(targets.back().dataset);
      }
      const std::size_t id = calls.size();
      calls.push_back(std::move(call));
      tickets.push_back(data.stage(
          std::move(targets),
          [&, id](bool ok, const std::string& failed) {
            Call& settled = calls[id];
            EXPECT_FALSE(settled.cancelled) << "call " << id;
            ++settled.callbacks;
            if (ok) {
              EXPECT_EQ(failed, "");
            } else {
              EXPECT_NE(std::find(settled.datasets.begin(),
                                  settled.datasets.end(), failed),
                        settled.datasets.end())
                  << failed;
            }
            log.push_back(strutil::cat(
                strutil::format_fixed(runtime.loop().now(), 6), " call ", id,
                ok ? " ok" : " failed ", failed));
          },
          pick(tenants)));
    } else if (roll < 0.7) {
      if (tickets.empty()) continue;
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(tickets.size()) - 1));
      if (data.cancel_stage(tickets[id])) {
        EXPECT_EQ(calls[id].callbacks, 0) << "call " << id;
        calls[id].cancelled = true;
      }
    } else if (roll < 0.82) {
      const std::size_t started =
          data.prefetch({pick(names), pick(names)}, pick(zones), pick(tenants));
      log.push_back(strutil::cat("prefetch ", started));
    } else if (roll < 0.97) {
      const std::string from = pick(link_ends);
      const std::string to = pick(link_ends);
      if (from == to) continue;
      data.engine().fail_link(from, to);
      runtime.loop().call_after(rng.exponential(5.0), [&, from, to] {
        data.engine().restore_link(from, to);
      });
    } else {
      // A crashed store comes back at once, empty, at its old capacity.
      const std::string zone = pick(zones);
      log.push_back(strutil::cat("repairs ", data.handle_store_failure(zone)));
      data.add_store(zone, 40e9);
    }
  }
  runtime.loop().run();  // every downed link comes back up

  for (std::size_t id = 0; id < calls.size(); ++id) {
    EXPECT_EQ(calls[id].callbacks, calls[id].cancelled ? 0 : 1)
        << "call " << id;
  }
  EXPECT_EQ(data.engine().live(), 0u);
  for (const auto& zone : zones) {
    // Exactly zero: the pool sums fractional byte sizes in floating
    // point, and the last release clears its rounding dust.
    EXPECT_EQ(data.catalog().store(zone).reserved, 0.0) << zone;
    for (const auto& name : names) {
      EXPECT_EQ(data.catalog().pins(name, zone), 0u) << name << " in " << zone;
    }
  }
  log.push_back(strutil::cat("transfers ", data.transfers(), " cancelled ",
                             data.cancelled_transfers(), " bytes ",
                             data.bytes_moved(), " evictions ",
                             data.catalog().evictions()));
  return log;
}

TEST(StageFuzz, EveryCallSettlesOnceAndReleasesEverything) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    const std::vector<std::string> log = run_stage_fuzz(seed, 3000);
    EXPECT_GT(log.size(), 1000u);
  }
}

TEST(StageFuzz, SameSeedSameCallbackLog) {
  EXPECT_EQ(run_stage_fuzz(7, 3000), run_stage_fuzz(7, 3000));
}

// ---------------------------------------------------------------------------
// Replication-ahead prefetch
// ---------------------------------------------------------------------------

TEST_F(DataPlaneFacadeTest, PrefetchUsesIdleLinksOnly) {
  data.register_dataset("busy-feed", 20e9, "lab");
  data.register_dataset("hot", 5e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);

  bool staged = false;
  data.stage({{"busy-feed", "delta"}},
             [&](bool result, const std::string&) { staged = result; });
  runtime.loop().run_until(3.0);  // demand transfer occupies the link
  EXPECT_EQ(data.prefetch({"hot"}, "delta"), 0u);  // link busy: skip
  runtime.loop().run();
  ASSERT_TRUE(staged);
  EXPECT_EQ(data.prefetch({"hot"}, "delta"), 1u);  // link now idle
  runtime.loop().run();
  EXPECT_TRUE(data.available_in("hot", "delta"));
  EXPECT_EQ(data.prefetches_started(), 1u);
  EXPECT_EQ(data.prefetches_completed(), 1u);
  // An already-resident dataset is not re-prefetched.
  EXPECT_EQ(data.prefetch({"hot"}, "delta"), 0u);
}

TEST_F(DataPlaneFacadeTest, PrefetchNeverEvicts) {
  data.add_store("delta", 10e9);
  data.register_dataset("resident", 8e9, "delta");
  data.register_dataset("spec", 5e9, "lab");
  // A demand stage would evict `resident`; speculation must not.
  EXPECT_EQ(data.prefetch({"spec"}, "delta"), 0u);
  EXPECT_TRUE(data.available_in("resident", "delta"));
  EXPECT_EQ(data.catalog().evictions(), 0u);
}

TEST_F(DataPlaneFacadeTest, PrefetchBudgetBoundsInFlightBytes) {
  data.set_prefetch_budget(6e9);
  data.register_dataset("p1", 4e9, "lab");
  data.register_dataset("p2", 4e9, "lab2");
  data.set_bandwidth("lab", "delta", 1e9);
  data.set_bandwidth("lab2", "delta", 1e9);
  // Both links are idle, but the second prefetch would put 8 GB in
  // flight against a 6 GB budget.
  EXPECT_EQ(data.prefetch({"p1", "p2"}, "delta"), 1u);
  runtime.loop().run();
  EXPECT_TRUE(data.available_in("p1", "delta"));
  EXPECT_FALSE(data.available_in("p2", "delta"));
  // The landed prefetch released its budget: p2 may go now.
  EXPECT_EQ(data.prefetch({"p2"}, "delta"), 1u);
  runtime.loop().run();
  EXPECT_TRUE(data.available_in("p2", "delta"));
}

TEST_F(DataPlaneFacadeTest, DemandStagingReclaimsPrefetchReservations) {
  // A waiterless prefetch holds an 8 GB reservation in a 10 GB store;
  // a 5 GB demand stage that cannot otherwise fit must reclaim the
  // speculation (cancelling its transfer) instead of failing the task.
  data.add_store("delta", 10e9);
  data.register_dataset("spec", 8e9, "lab");
  data.register_dataset("needed", 5e9, "lab2");
  data.set_bandwidth("lab", "delta", 1e9);
  data.set_bandwidth("lab2", "delta", 1e9);
  ASSERT_EQ(data.prefetch({"spec"}, "delta"), 1u);
  runtime.loop().run_until(2.0);  // prefetch mid-flight

  bool ok = false;
  data.stage({{"needed", "delta"}},
             [&](bool result, const std::string&) { ok = result; });
  runtime.loop().run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(data.available_in("needed", "delta"));
  EXPECT_FALSE(data.available_in("spec", "delta"));
  EXPECT_EQ(data.cancelled_transfers(), 1u);
  // The reclaimed reservation and source pin were fully returned.
  EXPECT_DOUBLE_EQ(data.catalog().store("delta").reserved, 0.0);
  EXPECT_EQ(data.catalog().pins("spec", "lab"), 0u);
}

TEST_F(DataPlaneFacadeTest, DemandStageReclaimsTheFirstPrefetchByName) {
  // Two waiterless prefetches hold 16 of the 20 GB; a 5 GB demand stage
  // needs one of them back. The datasets were registered in reverse
  // name order, yet the reclaim takes the one whose name sorts first.
  data.add_store("delta", 20e9);
  data.register_dataset("pz", 8e9, "lab");
  data.register_dataset("pa", 8e9, "lab2");
  data.register_dataset("needed", 5e9, "lab3");
  for (const char* src : {"lab", "lab2", "lab3"}) {
    data.set_bandwidth(src, "delta", 1e9);
  }
  ASSERT_EQ(data.prefetch({"pz", "pa"}, "delta"), 2u);
  runtime.loop().run_until(2.0);  // both prefetches mid-flight

  bool ok = false;
  data.stage({{"needed", "delta"}},
             [&](bool result, const std::string&) { ok = result; });
  runtime.loop().run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(data.cancelled_transfers(), 1u);
  EXPECT_FALSE(data.available_in("pa", "delta"));
  EXPECT_TRUE(data.available_in("pz", "delta"));
  EXPECT_TRUE(data.available_in("needed", "delta"));
  EXPECT_DOUBLE_EQ(data.catalog().store("delta").reserved, 0.0);
}

TEST_F(DataPlaneFacadeTest, StoreCrashFailsInboundWaitersInNameOrder) {
  // Two demand flights into delta, staged (and registered) in reverse
  // name order, are in flight when the store crashes: their waiters
  // fail on the next loop turn in dataset-name order.
  data.add_store("delta", 100e9);
  data.register_dataset("d2", 10e9, "lab");
  data.register_dataset("d1", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);
  std::vector<std::string> failed;
  for (const char* name : {"d2", "d1"}) {
    data.stage({{name, "delta"}}, [&failed](bool ok, const std::string& ds) {
      if (!ok) failed.push_back(ds);
    });
  }
  runtime.loop().run_until(4.0);  // both mid-flight
  ASSERT_TRUE(failed.empty());
  EXPECT_EQ(data.handle_store_failure("delta"), 0u);
  runtime.loop().run();
  EXPECT_EQ(failed, (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(data.cancelled_transfers(), 2u);
  EXPECT_EQ(data.catalog().pins("d1", "lab"), 0u);
  EXPECT_EQ(data.catalog().pins("d2", "lab"), 0u);
}

TEST_F(DataPlaneFacadeTest, DemandStagePiggybacksOnPrefetch) {
  data.register_dataset("warm", 10e9, "lab");
  data.set_bandwidth("lab", "delta", 1e9);
  ASSERT_EQ(data.prefetch({"warm"}, "delta"), 1u);
  runtime.loop().run_until(3.0);  // prefetch mid-flight
  bool ok = false;
  data.stage({{"warm", "delta"}},
             [&](bool result, const std::string&) { ok = result; });
  runtime.loop().run();
  EXPECT_TRUE(ok);
  // The demand stage rode the in-flight prefetch: one transfer total.
  EXPECT_EQ(data.transfers(), 1u);
  EXPECT_TRUE(data.available_in("warm", "delta"));
}

// ---------------------------------------------------------------------------
// Locality-aware placement
// ---------------------------------------------------------------------------

TEST(PlacementAdvisorTest, RanksZonesByBytesToMove) {
  data::ReplicaCatalog catalog;
  catalog.register_dataset("big", 10e9, "frontier");
  catalog.register_dataset("small", 1e9, "delta");
  const data::PlacementAdvisor advisor(catalog);
  EXPECT_DOUBLE_EQ(
      advisor.bytes_to_move({"big", "small"}, "frontier"), 1e9);
  EXPECT_DOUBLE_EQ(advisor.bytes_to_move({"big", "small"}, "delta"), 10e9);
  EXPECT_DOUBLE_EQ(advisor.bytes_to_move({"unknown"}, "delta"), 0.0);
}

TEST(PlacementAdvisorTest, StageInTimeTracksLiveLinkContention) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::ReplicaCatalog catalog;
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_bandwidth("far", "a", 1e9);
  engine.set_bandwidth("far", "b", 1e9);
  catalog.register_dataset("ds", 10e9, "far");

  const data::PlacementAdvisor advisor(catalog, &engine);
  // Idle links: 10 GB over 1 GB/s either way.
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"ds"}, "a"), 10.0);
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"ds"}, "b"), 10.0);
  // A transfer flowing on far->b halves the fair share a newcomer
  // would get there; the estimate must see it.
  engine.transfer("noise", {"far"}, "b", 50e9, [](bool, sim::Duration) {});
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"ds"}, "a"), 10.0);
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"ds"}, "b"), 20.0);
  // Resident data costs nothing.
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"ds"}, "far"), 0.0);
}

TEST(PlacementAdvisorTest, StripedSourcesSumTheirFairShares) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::ReplicaCatalog catalog;
  data::TransferEngine engine(loop, rng);
  engine.set_bandwidth("r1", "dst", 1e9);
  engine.set_bandwidth("r2", "dst", 1e9);
  catalog.register_dataset("wide", 10e9, "r1");
  catalog.register_dataset("wide", 10e9, "r2");

  const data::PlacementAdvisor advisor(catalog, &engine);
  // Two replica links stripe: the achievable rate is their sum.
  EXPECT_DOUBLE_EQ(advisor.stage_in_time({"wide"}, "dst"), 5.0);
}

TEST(TaskLocality, QueueDepthSteersPlacementWhenDataTies) {
  Session session({.seed = 8});
  session.add_platform(platform::delta_profile(1));
  session.add_platform(platform::frontier_profile(1));
  auto& on_delta = session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& on_frontier =
      session.submit_pilot({.platform = "frontier", .nodes = 1});

  // Saturate delta and pile up a queue there.
  std::vector<std::string> uids;
  for (int i = 0; i < 4; ++i) {
    TaskDescription hog;
    hog.cores = 64;
    hog.duration = common::Distribution::constant(5.0);
    uids.push_back(session.tasks().submit(on_delta, hog));
  }
  session.run_until(1.0);
  ASSERT_GT(session.scheduler().queue_length(on_delta.uid()), 0u);

  // No data anywhere: bytes-only ranking would tie and keep the first
  // candidate (delta). The queue-depth penalty must steer to frontier.
  TaskDescription work;
  work.cores = 2;
  work.duration = common::Distribution::constant(0.5);
  const auto uid =
      session.tasks().submit_any({&on_delta, &on_frontier}, work);
  session.run();
  EXPECT_EQ(session.tasks().get(uid).pilot_uid(), on_frontier.uid());
}

TEST(TaskLocality, SubmitAnyRunsWhereTheDataLives) {
  Session session({.seed = 3});
  session.add_platform(platform::delta_profile(2));
  session.add_platform(platform::frontier_profile(2));
  auto& on_delta = session.submit_pilot({.platform = "delta", .nodes = 2});
  auto& on_frontier =
      session.submit_pilot({.platform = "frontier", .nodes = 2});
  session.data().register_dataset("blob", 5e9, "frontier");

  TaskDescription desc;
  desc.duration = common::Distribution::constant(0.5);
  desc.staging.push_back(StagingDirective::in("blob"));
  const auto uid =
      session.tasks().submit_any({&on_delta, &on_frontier}, desc);
  session.run();

  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_EQ(session.tasks().get(uid).pilot_uid(), on_frontier.uid());
  EXPECT_DOUBLE_EQ(session.data().bytes_moved(), 0.0);
}

TEST(WorkflowData, LocalityPlacementMovesNoBytes) {
  Session session({.seed = 5});
  session.add_platform(platform::delta_profile(2));
  session.add_platform(platform::frontier_profile(2));
  auto& on_delta = session.submit_pilot({.platform = "delta", .nodes = 2});
  auto& on_frontier =
      session.submit_pilot({.platform = "frontier", .nodes = 2});
  session.data().register_dataset("shard-d", 8e9, "delta");
  session.data().register_dataset("shard-f", 8e9, "frontier");
  wf::WorkflowManager workflows(session);

  TaskDescription work;
  work.duration = common::Distribution::constant(1.0);
  wf::Pipeline pipeline;
  pipeline.name = "loc";
  pipeline.placement = wf::Placement::locality;
  wf::Stage first;
  first.name = "near-delta";
  first.consumes = {"shard-d"};
  first.tasks = {work};
  wf::Stage second;
  second.name = "near-frontier";
  second.consumes = {"shard-f"};
  second.tasks = {work};
  pipeline.stages = {first, second};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, {&on_delta, &on_frontier},
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.tasks_done, 2u);
  // Compute went to the data: nothing crossed the WAN.
  EXPECT_DOUBLE_EQ(session.data().bytes_moved(), 0.0);
  // Lineage drained: pins and consumer references are all released.
  EXPECT_EQ(session.data().catalog().consumers_left("shard-d"), 0u);
  EXPECT_EQ(session.data().catalog().consumers_left("shard-f"), 0u);
  EXPECT_EQ(session.data().catalog().pins("shard-d", "delta"), 0u);
  EXPECT_EQ(session.data().catalog().pins("shard-f", "frontier"), 0u);
}

TEST(WorkflowData, LookaheadPrefetchesNextStageInputs) {
  Session session({.seed = 11});
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("later", 8e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);  // ~8 s transfer
  wf::WorkflowManager workflows(session);

  // Stage 1 computes for 15 s with the lab->delta link idle; stage 2's
  // input must be prefetched during that window so stage 2 starts with
  // its data already resident.
  TaskDescription slow;
  slow.duration = common::Distribution::constant(15.0);
  TaskDescription quick;
  quick.duration = common::Distribution::constant(0.5);
  wf::Pipeline pipeline;
  pipeline.name = "lookahead";
  wf::Stage compute;
  compute.name = "compute";
  compute.tasks = {slow};
  wf::Stage analyze;
  analyze.name = "analyze";
  analyze.consumes = {"later"};
  analyze.tasks = {quick};
  pipeline.stages = {compute, analyze};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, pilot,
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run_until(14.0);  // stage 1 still computing
  EXPECT_EQ(session.data().prefetches_started(), 1u);
  EXPECT_TRUE(session.data().available_in("later", "delta"));
  session.run();
  EXPECT_TRUE(result.ok);
  // Stage 2 found its input resident: its staging was instantaneous,
  // so its duration is just the task (well under the 8 s transfer).
  ASSERT_EQ(result.stage_durations.size(), 2u);
  EXPECT_LT(result.stage_durations[1], 4.0);
}

TEST(WorkflowData, DataBlindPlacementPaysTheTransfer) {
  Session session({.seed = 5});
  session.add_platform(platform::delta_profile(2));
  session.add_platform(platform::frontier_profile(2));
  auto& on_delta = session.submit_pilot({.platform = "delta", .nodes = 2});
  auto& on_frontier =
      session.submit_pilot({.platform = "frontier", .nodes = 2});
  session.data().register_dataset("shard-d", 8e9, "delta");
  session.data().register_dataset("shard-f", 8e9, "frontier");
  wf::WorkflowManager workflows(session);

  TaskDescription work;
  work.duration = common::Distribution::constant(1.0);
  wf::Pipeline pipeline;
  pipeline.name = "blind";
  pipeline.placement = wf::Placement::first;
  wf::Stage first;
  first.name = "near-delta";
  first.consumes = {"shard-d"};
  first.tasks = {work};
  wf::Stage second;
  second.name = "far-from-frontier";
  second.consumes = {"shard-f"};
  second.tasks = {work};
  pipeline.stages = {first, second};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, {&on_delta, &on_frontier},
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  // Everything ran on the first pilot: shard-f crossed the WAN.
  EXPECT_DOUBLE_EQ(session.data().bytes_moved(), 8e9);
  EXPECT_TRUE(session.data().available_in("shard-f", "delta"));
}

TEST(TaskLocality, CancelDuringOverlappedStageInReclaimsEverything) {
  Session session({.seed = 9});
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("slow-input", 50e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);  // ~50 s transfer

  TaskDescription desc;
  desc.duration = common::Distribution::constant(1.0);
  desc.staging.push_back(StagingDirective::in("slow-input"));
  const auto uid = session.tasks().submit(pilot, desc);
  // The grant lands long before the 50 GB transfer: the task parks in
  // SCHEDULED holding its slot. Cancelling in that window must free
  // the slot and abort the now-unwanted transfer.
  session.run_until(5.0);
  ASSERT_EQ(session.tasks().get(uid).state(), TaskState::scheduled);
  EXPECT_TRUE(session.tasks().cancel(uid));
  session.run();

  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::canceled);
  EXPECT_EQ(session.data().cancelled_transfers(), 1u);
  EXPECT_FALSE(session.data().available_in("slow-input", "delta"));
  // The slot returned to the pool: a follow-up task runs immediately.
  TaskDescription probe;
  probe.cores = 64;  // a whole node: fails if the slot leaked
  probe.duration = common::Distribution::constant(0.5);
  const auto probe_uid = session.tasks().submit(pilot, probe);
  session.run();
  EXPECT_EQ(session.tasks().get(probe_uid).state(), TaskState::done);
}

TEST(TaskLocality, StageOutIntoFullStoreFailsTaskNotRun) {
  Session session({.seed = 14});
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  session.data().add_store("delta", 1e9);

  TaskDescription desc;
  desc.duration = common::Distribution::constant(0.5);
  desc.staging.push_back(StagingDirective::out("oversized"));
  desc.payload.set("output_bytes", 5e9);  // cannot ever fit the store
  const auto uid = session.tasks().submit(pilot, desc);
  session.run();  // must not abort on a capacity throw

  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::failed);
  EXPECT_NE(session.tasks().get(uid).error().find("stage-out"),
            std::string::npos);
}

TEST(TaskLocality, ConsumedInputsMakeRoomForOutputsInSameStore) {
  Session session({.seed = 23});
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  session.data().add_store("delta", 10e9);
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("input", 6e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);

  // Input (6 GB) and output (6 GB) cannot coexist in the 10 GB store;
  // once the payload has read the input, its pin drops and the output
  // may evict it instead of failing the task.
  TaskDescription desc;
  desc.duration = common::Distribution::constant(1.0);
  desc.staging.push_back(StagingDirective::in("input"));
  desc.staging.push_back(StagingDirective::out("output"));
  desc.payload.set("output_bytes", 6e9);
  const auto uid = session.tasks().submit(pilot, desc);
  session.run();

  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_TRUE(session.data().available_in("output", "delta"));
  EXPECT_FALSE(session.data().available_in("input", "delta"));  // evicted
  EXPECT_EQ(session.data().catalog().evictions(), 1u);
}

TEST(TaskLocality, StageOutFailureCancelsSiblingOutputs) {
  Session session({.seed = 19});
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  session.data().add_store("tiny", 1e9);  // can never take a 5 GB output
  session.data().set_bandwidth("delta", "archive", 1e9);  // ~5 s out

  TaskDescription desc;
  desc.duration = common::Distribution::constant(0.5);
  desc.staging.push_back(StagingDirective::out("out-a", "tiny"));
  desc.staging.push_back(StagingDirective::out("out-b", "archive"));
  desc.payload.set("output_bytes", 5e9);
  const auto uid = session.tasks().submit(pilot, desc);
  session.run();

  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::failed);
  // The failed tiny-store output aborted the archive transfer too.
  EXPECT_EQ(session.data().cancelled_transfers(), 1u);
  EXPECT_FALSE(session.data().available_in("out-b", "archive"));
}

TEST(TaskLocality, StagedInputsStayPinnedUntilTaskFinishes) {
  Session session({.seed = 15});
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("input", 5e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);  // ~5 s transfer

  // A hog keeps the single node busy so the victim waits granted-less
  // long after its stage-in lands.
  TaskDescription hog;
  hog.cores = 64;
  hog.duration = common::Distribution::constant(20.0);
  session.tasks().submit(pilot, hog);
  TaskDescription victim;
  victim.cores = 64;
  victim.duration = common::Distribution::constant(1.0);
  victim.staging.push_back(StagingDirective::in("input"));
  const auto uid = session.tasks().submit(pilot, victim);

  session.run_until(10.0);  // staged, still queued behind the hog
  ASSERT_EQ(session.tasks().get(uid).state(), TaskState::scheduling);
  ASSERT_TRUE(session.data().available_in("input", "delta"));
  // Pinned while waiting: store pressure cannot evict the input.
  EXPECT_GT(session.data().catalog().pins("input", "delta"), 0u);
  session.run();
  EXPECT_EQ(session.tasks().get(uid).state(), TaskState::done);
  EXPECT_EQ(session.data().catalog().pins("input", "delta"), 0u);
}

TEST(WorkflowData, ServiceFailureAbandonsStageTransfers) {
  Session session({.seed = 16});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.runtime().network().register_host("lab:x", "lab");
  session.data().register_dataset("huge", 50e9, "lab");
  session.data().set_bandwidth("lab", "delta", 1e9);  // ~50 s transfer
  wf::WorkflowManager workflows(session);

  wf::Pipeline pipeline;
  pipeline.name = "cut-short";
  wf::Stage stage;
  stage.name = "doomed";
  stage.consumes = {"huge"};
  ServiceDescription svc;
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "llama-8b"}});
  svc.gpus = 1;
  svc.ready_timeout = 2.0;  // guaranteed bootstrap failure
  stage.services = {svc};
  TaskDescription task;
  task.duration = common::Distribution::constant(1.0);
  stage.tasks = {task};
  pipeline.stages = {stage};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, pilot,
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_FALSE(result.ok);
  // The 50 GB transfer was abandoned with the stage, not left running.
  EXPECT_EQ(session.data().cancelled_transfers(), 1u);
  EXPECT_FALSE(session.data().available_in("huge", "delta"));
}

TEST(WorkflowData, MissingDeclaredOutputFailsPipeline) {
  Session session({.seed = 18});
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  wf::WorkflowManager workflows(session);

  wf::Pipeline pipeline;
  pipeline.name = "broken-contract";
  wf::Stage stage;
  stage.name = "claims-too-much";
  stage.produces = {"never-made"};  // no task registers it
  TaskDescription task;
  task.duration = common::Distribution::constant(1.0);
  stage.tasks = {task};
  wf::Stage after;
  after.name = "never-runs";
  TaskDescription task2;
  task2.duration = common::Distribution::constant(1.0);
  after.tasks = {task2};
  pipeline.stages = {stage, after};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, pilot,
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.stage_names.size(), 1u);  // stage 2 never started
}

TEST(WorkflowData, FailedPipelineReleasesUnstartedStageLineage) {
  Session session({.seed = 12});
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.data().register_dataset("early", 1e9, "delta");
  session.data().register_dataset("late", 1e9, "delta");
  wf::WorkflowManager workflows(session);

  wf::Pipeline pipeline;
  pipeline.name = "doomed";
  wf::Stage breaks;
  breaks.name = "breaks";
  breaks.consumes = {"early"};
  TaskDescription bad;
  bad.staging.push_back(StagingDirective::in("no-such-dataset"));
  breaks.tasks = {bad};
  wf::Stage never;
  never.name = "never-starts";
  never.consumes = {"late"};
  TaskDescription fine;
  fine.duration = common::Distribution::constant(1.0);
  never.tasks = {fine};
  pipeline.stages = {breaks, never};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, pilot,
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_FALSE(result.ok);
  // Both the failed stage's and the never-started stage's lineage
  // references were dropped — nothing stays evict-proof forever.
  EXPECT_EQ(session.data().catalog().consumers_left("early"), 0u);
  EXPECT_EQ(session.data().catalog().consumers_left("late"), 0u);
}

// ---------------------------------------------------------------------------
// The catalog's hashed index
// ---------------------------------------------------------------------------

TEST(Catalog, FindResolvesEveryAliasToTheCanonicalDataset) {
  data::ReplicaCatalog catalog;
  catalog.register_dataset("t0/part", 60.0, "z", "cid:part");
  catalog.register_dataset("t1/part", 60.0, "w", "cid:part");
  catalog.register_dataset("t2/part", 60.0, "z", "cid:part");
  const data::Dataset* canonical = catalog.find("t0/part");
  ASSERT_NE(canonical, nullptr);
  EXPECT_EQ(canonical, &catalog.dataset("t0/part"));
  EXPECT_EQ(catalog.find("t1/part"), canonical);
  EXPECT_EQ(catalog.find("t2/part"), canonical);
  EXPECT_EQ(canonical->name, "t0/part");
  EXPECT_EQ(canonical->zones, (std::set<std::string>{"w", "z"}));
  EXPECT_EQ(catalog.find("t3/part"), nullptr);
  EXPECT_EQ(catalog.find(""), nullptr);
  // Entries never move: growing (and rehashing) the index keeps the
  // address every alias resolves to.
  for (int i = 0; i < 1000; ++i) {
    catalog.register_dataset(strutil::cat("x", i), 1.0, "z");
  }
  EXPECT_EQ(catalog.find("t0/part"), canonical);
  EXPECT_EQ(catalog.find("t2/part"), canonical);
}

struct SweepTally {
  std::size_t evictions = 0;
  std::size_t aliases = 0;
  std::size_t lost = 0;
  std::size_t lost_pins = 0;
};

/// One seeded sweep of the catalog's queries. 300 names (every fifth
/// without a content id, the last 50 sharing a content id with one of
/// the first 50, so whichever registers first is canonical) and 20 that
/// are never registered, three finite stores and an unbounded archive:
/// registrations, reserve + commit transfers, touches, drops, pins and
/// unpins, with one store failure halfway. A plain reference follows
/// every step, taking evictions from the eviction log and the failure
/// from fail_store's result; after each step has, find, dataset,
/// canonical, available_in and pins must agree with each other and with
/// it. Returns how many evictions, aliases, lost replicas and lost pins
/// the sweep saw.
SweepTally run_catalog_sweep(std::uint64_t seed, int steps) {
  common::Rng rng = common::Rng(seed).fork("catalog-sweep");
  data::ReplicaCatalog catalog;
  const std::vector<std::string> zones = {"a", "b", "c", "archive"};
  const std::vector<std::string> stores = {"a", "b", "c"};
  for (const auto& zone : stores) catalog.add_store(zone, 100.0);

  std::vector<std::string> names;
  std::vector<std::string> content;
  std::vector<double> sizes;
  for (int i = 0; i < 300; ++i) {
    names.push_back(strutil::cat("t", i % 3, "/ds", i));
    content.push_back(i % 5 == 0 ? "" : strutil::cat("cid", i % 250));
    sizes.push_back(rng.uniform(1.0, 30.0));
  }
  std::vector<std::string> queried = names;
  for (int i = 0; i < 20; ++i) queried.push_back(strutil::cat("ghost", i));

  // The reference: name -> canonical, canonical -> zones, and pins.
  std::map<std::string, std::string> canonical_of;
  std::map<std::string, std::string> by_content;
  std::map<std::string, double> bytes_of;
  std::map<std::string, std::set<std::string>> zones_of;
  std::map<std::pair<std::string, std::string>, std::size_t> pins;
  std::vector<std::pair<std::string, std::string>> lost_pins;
  SweepTally tally;

  const auto pick = [&rng](std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
  };
  const auto follow_evictions = [&]() -> std::string {
    const auto& log = catalog.eviction_log();
    for (; tally.evictions < log.size(); ++tally.evictions) {
      const std::string& line = log[tally.evictions];
      const std::string zone = line.substr(0, line.find('/'));
      const std::string name = line.substr(line.find('/') + 1);
      if (zones_of[name].erase(zone) == 0) return "evicted absent " + line;
      if (pins.count({name, zone}) != 0) return "evicted pinned " + line;
    }
    return "";
  };
  const auto mismatch = [&]() -> std::string {
    for (const auto& name : queried) {
      const data::Dataset* found = catalog.find(name);
      const auto ref = canonical_of.find(name);
      if ((found != nullptr) != (ref != canonical_of.end())) {
        return "find " + name;
      }
      if (catalog.has(name) != (found != nullptr)) return "has " + name;
      if (found == nullptr) {
        if (catalog.canonical(name) != name) return "canonical " + name;
        for (const auto& zone : zones) {
          if (catalog.available_in(name, zone)) return "available " + name;
        }
        continue;
      }
      const std::string& canon = ref->second;
      if (&catalog.dataset(name) != found) return "dataset " + name;
      if (catalog.canonical(name) != canon) return "canonical " + name;
      if (found->name != canon) return "name " + name;
      if (catalog.find(canon) != found) return "find canonical " + name;
      if (found->bytes != bytes_of[canon]) return "bytes " + name;
      if (found->zones != zones_of[canon]) return "zones " + name;
      for (const auto& zone : zones) {
        if (catalog.available_in(name, zone) !=
            (zones_of[canon].count(zone) != 0)) {
          return "available_in " + name + " " + zone;
        }
        const auto held = pins.find({canon, zone});
        const std::size_t pinned = held == pins.end() ? 0 : held->second;
        if (catalog.pins(name, zone) != pinned) {
          return "pins " + name + " " + zone;
        }
      }
    }
    return "";
  };

  for (int step = 0; step < steps; ++step) {
    const std::size_t i = pick(names.size());
    const std::string& name = names[i];
    const std::string& zone = zones[pick(zones.size())];
    const auto known = canonical_of.find(name);
    const double roll = rng.uniform(0.0, 1.0);
    if (step == steps / 2) {
      const std::string failed = stores[pick(stores.size())];
      // A reader holds a pin in the failing store, released late below.
      for (const auto& [canon, where] : zones_of) {
        if (where.count(failed) == 0) continue;
        catalog.pin(canon, failed);
        ++pins[{canon, failed}];
        break;
      }
      std::vector<std::string> expected;
      for (auto& [canon, where] : zones_of) {
        if (where.erase(failed) != 0) expected.push_back(canon);
      }
      for (auto it = pins.begin(); it != pins.end();) {
        if (it->first.second != failed) {
          ++it;
          continue;
        }
        for (std::size_t n = 0; n < it->second; ++n) {
          lost_pins.push_back(it->first);
        }
        it = pins.erase(it);
      }
      const std::vector<std::string> lost = catalog.fail_store(failed);
      if (lost != expected) ADD_FAILURE() << "fail_store " << failed;
      tally.lost = lost.size();
      tally.lost_pins = lost_pins.size();
      // The interrupted readers release their pins late.
      for (const auto& [canon, where] : lost_pins) {
        EXPECT_NO_THROW(catalog.unpin(canon, where)) << canon;
      }
      catalog.add_store(failed, 100.0);
    } else if (roll < 0.35) {
      // Register: the name (and, for a new content id, the canonical
      // entry) exists even when the replica then cannot fit.
      if (known == canonical_of.end()) {
        const auto cid = by_content.find(content[i]);
        const bool alias = !content[i].empty() && cid != by_content.end();
        const std::string canon = alias ? cid->second : name;
        canonical_of[name] = canon;
        if (alias) {
          ++tally.aliases;
        } else {
          bytes_of[canon] = sizes[i];
          zones_of[canon];
          if (!content[i].empty()) by_content[content[i]] = canon;
        }
      }
      try {
        catalog.register_dataset(name, sizes[i], zone, content[i]);
        zones_of[canonical_of[name]].insert(zone);
      } catch (const Error& error) {
        if (error.code() != Errc::capacity) throw;
      }
    } else if (roll < 0.6) {
      if (known == canonical_of.end()) continue;
      const std::string& canon = known->second;
      if (zones_of[canon].count(zone) != 0) continue;
      if (catalog.reserve(zone, bytes_of[canon])) {
        const std::string landed = follow_evictions();
        if (!landed.empty()) ADD_FAILURE() << landed;
        catalog.commit_replica(name, zone);
        zones_of[canon].insert(zone);
      }
    } else if (roll < 0.75) {
      catalog.touch(name, zone);
    } else if (roll < 0.85) {
      const bool dropped = catalog.drop_replica(name, zone);
      const bool expect = known != canonical_of.end() &&
                          zones_of[known->second].count(zone) != 0 &&
                          pins.count({known->second, zone}) == 0;
      if (dropped != expect) ADD_FAILURE() << "drop " << name << " " << zone;
      if (dropped) zones_of[known->second].erase(zone);
    } else if (roll < 0.93) {
      if (known == canonical_of.end() || pins.size() >= 4) continue;
      if (zones_of[known->second].count(zone) == 0) continue;
      catalog.pin(name, zone);
      ++pins[{known->second, zone}];
    } else if (!pins.empty()) {
      auto it = pins.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(pins.size())));
      catalog.unpin(it->first.first, it->first.second);
      if (--it->second == 0) pins.erase(it);
    }
    const std::string evicted = follow_evictions();
    if (!evicted.empty()) {
      ADD_FAILURE() << "step " << step << ": " << evicted;
      return tally;
    }
    const std::string wrong = mismatch();
    if (!wrong.empty()) {
      ADD_FAILURE() << "step " << step << ": " << wrong;
      return tally;
    }
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_THROW((void)catalog.dataset(strutil::cat("ghost", i)), Error);
  }
  return tally;
}

TEST(CatalogSweep, QueriesAgreeWithAPlainReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const SweepTally tally = run_catalog_sweep(seed, 600);
    // Not vacuous: the sweep evicted, aliased and lost replicas.
    EXPECT_GT(tally.evictions, 100u);
    EXPECT_GT(tally.aliases, 10u);
    EXPECT_GT(tally.lost, 0u);
    EXPECT_GT(tally.lost_pins, 0u);
  }
}

// ---------------------------------------------------------------------------
// Store accounting tolerance and store failure
// ---------------------------------------------------------------------------

TEST(Catalog, ShrinkToExactFootprintToleratesReservationDust) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 1e9);
  // A tiny committed replica next to large transient reservations: the
  // ~7e-9 bytes of rounding dust the reserve/release round-trips leave
  // in the reserved pool is far above one ULP of the footprint.
  catalog.register_dataset("d", 1.0, "z");
  const double third = 1e8 / 3.0;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(catalog.reserve("z", third));
  for (int i = 0; i < 2; ++i) catalog.release_reservation("z", third);
  EXPECT_GT(catalog.store("z").reserved, third);  // the dust is real
  // Shrinking to the exact nominal footprint must not misfire on it:
  // before the unified ULP tolerance this threw invalid_state.
  EXPECT_NO_THROW(catalog.add_store("z", 1.0 + third));
  EXPECT_DOUBLE_EQ(catalog.store("z").capacity, 1.0 + third);
  // The last release leaves nothing reserved, dust included.
  catalog.release_reservation("z", third);
  EXPECT_EQ(catalog.store("z").reserved, 0.0);
}

TEST(Catalog, ReservationCountNeverGoesBelowZero) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 1e9);
  // A sub-byte commit without a reservation passes the one-byte slack;
  // it must not leave the store's count of outstanding reservations
  // below zero, or a later release would clear a live reservation.
  catalog.register_dataset("tiny", 0.5, "elsewhere");
  catalog.commit_replica("tiny", "z");
  const double third = 1e8 / 3.0;
  ASSERT_TRUE(catalog.reserve("z", third));
  ASSERT_TRUE(catalog.reserve("z", third));
  catalog.release_reservation("z", third);
  EXPECT_DOUBLE_EQ(catalog.store("z").reserved, third);
  catalog.release_reservation("z", third);
  EXPECT_EQ(catalog.store("z").reserved, 0.0);
}

TEST(Catalog, FailStoreDropsReplicasAndToleratesLatePins) {
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 1e9);
  catalog.register_dataset("a", 1e8, "z");
  catalog.register_dataset("b", 1e8, "z");
  catalog.register_dataset("b", 1e8, "w");  // survivor elsewhere
  catalog.pin("a", "z");                    // an in-flight reader

  const auto lost = catalog.fail_store("z");
  EXPECT_EQ(lost, (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(catalog.available_in("a", "z"));
  EXPECT_FALSE(catalog.available_in("b", "z"));
  EXPECT_TRUE(catalog.available_in("b", "w"));

  // The reader interrupted by the crash releases its pin late: that is
  // tolerated exactly once per recorded pin.
  EXPECT_NO_THROW(catalog.unpin("a", "z"));
  EXPECT_THROW(catalog.unpin("a", "z"), Error);
  // New pins on the dead zone are still real errors.
  EXPECT_THROW(catalog.pin("b", "z"), Error);
}

TEST(Catalog, FailStoreSortsLostNamesWhateverTheRegistrationOrder) {
  // The index is unordered: the lost list is sorted explicitly, so
  // neither reverse nor shuffled registration shows in it. Aliases are
  // not listed, their canonical dataset is.
  std::vector<std::string> sorted;
  for (int i = 0; i < 64; ++i) sorted.push_back(strutil::cat("ds", i));
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
  std::vector<std::string> shuffled = sorted;
  common::Rng(5).shuffle(shuffled);
  for (const auto& order : {reversed, shuffled}) {
    data::ReplicaCatalog catalog;
    for (const auto& name : order) {
      catalog.register_dataset(name, 1.0, "z", strutil::cat("cid:", name));
    }
    catalog.register_dataset("alias", 1.0, "z", "cid:ds7");
    catalog.register_dataset("elsewhere", 1.0, "w");  // loses nothing
    EXPECT_EQ(catalog.fail_store("z"), sorted);
  }
}

TEST(Catalog, StoreZonesSortedAndShrinksWithFailures) {
  data::ReplicaCatalog catalog;
  catalog.add_store("c", 1.0);
  catalog.add_store("a", 1.0);
  catalog.add_store("b", 1.0);
  EXPECT_EQ(catalog.store_zones(),
            (std::vector<std::string>{"a", "b", "c"}));
  (void)catalog.fail_store("b");
  EXPECT_EQ(catalog.store_zones(), (std::vector<std::string>{"a", "c"}));
}

TEST(Catalog, StoreZonesListsOnlyDeclaredStores) {
  // A replica, a reservation or a quota in a zone gives it no finite
  // store; only add_store declares one, and fail_store undeclares it.
  data::ReplicaCatalog catalog;
  catalog.add_store("b", 1e9);
  catalog.register_dataset("d", 10.0, "archive");
  ASSERT_TRUE(catalog.reserve("scratch", 5.0));
  catalog.set_tenant_quota("lab", "t1", 1e9);
  EXPECT_EQ(catalog.store_zones(), (std::vector<std::string>{"b"}));
  EXPECT_DOUBLE_EQ(catalog.store("archive").used, 10.0);
  EXPECT_DOUBLE_EQ(catalog.store("scratch").reserved, 5.0);
  // A shrink below the bytes in use fails and declares nothing.
  EXPECT_THROW(catalog.add_store("archive", 1.0), Error);
  EXPECT_EQ(catalog.store_zones(), (std::vector<std::string>{"b"}));
  // Declaring a zone that already holds replicas keeps their bytes.
  catalog.add_store("archive", 100.0);
  EXPECT_EQ(catalog.store_zones(),
            (std::vector<std::string>{"archive", "b"}));
  EXPECT_DOUBLE_EQ(catalog.store("archive").free(), 90.0);
  EXPECT_EQ(catalog.fail_store("archive"), (std::vector<std::string>{"d"}));
  EXPECT_EQ(catalog.store_zones(), (std::vector<std::string>{"b"}));
}

TEST_F(DataPlaneFacadeTest, RepairGoesToADeclaredStore) {
  // Stores a, b and c are declared; `other` lives in the undeclared
  // (infinite) archive. After `d` is staged from a to b, a crashes: the
  // repair of d goes to c, the declared store with the most free bytes
  // that lacks it, never to the archive.
  data.add_store("a", 1e9);
  data.add_store("b", 1e9);
  data.add_store("c", 2e9);
  data.register_dataset("other", 1e8, "archive");
  data.register_dataset("d", 5e8, "a");
  data.set_bandwidth("a", "b", 1e9);
  data.set_bandwidth("b", "c", 1e9);
  bool staged = false;
  data.stage({{"d", "b"}}, [&](bool ok, const std::string&) { staged = ok; });
  runtime.loop().call_at(30.0, [this] { data.handle_store_failure("a"); });
  runtime.loop().run();
  ASSERT_TRUE(staged);
  EXPECT_EQ(data.catalog().store_zones(),
            (std::vector<std::string>{"b", "c"}));
  const auto& log = data.repair_log();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0], "30.000000 store_failed a lost=1");
  EXPECT_EQ(log[1], "30.000000 repair d -> c");
  EXPECT_EQ(data.repairs_completed(), 1u);
  EXPECT_TRUE(data.available_in("d", "c"));
  EXPECT_FALSE(data.available_in("d", "archive"));
}

}  // namespace
