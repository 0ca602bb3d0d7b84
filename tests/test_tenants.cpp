// Multi-tenant runtime tests: weighted fair-share grant arbitration
// (DRF-style dominant shares over priority classes), the cross-tenant
// priority-tie ordering audit, per-tenant store and link quotas,
// content-addressed replica sharing between tenants, and the
// per-tenant accounting the Session-level APIs wire up.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/core/session.hpp"
#include "ripple/data/catalog.hpp"
#include "ripple/data/transfer_engine.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

ScheduleRequest one_core(const std::string& uid, const std::string& tenant,
                         std::vector<std::string>* order) {
  ScheduleRequest request;
  request.uid = uid;
  request.cores = 1;
  request.tenant = tenant;
  request.granted = [order, uid](platform::Slot, platform::Node*) {
    order->push_back(uid);
  };
  return request;
}

// ---------------------------------------------------------------------------
// Weighted fair-share scheduling
// ---------------------------------------------------------------------------

TEST(TenantsTest, FairShareGrantsFollowWeights) {
  Session session{SessionConfig{.seed = 11}};
  session.add_platform(platform::delta_profile(1));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& sched = session.scheduler();
  sched.set_tenant_weight("heavy", 2.0);
  sched.set_tenant_weight("light", 1.0);

  // Fill the single 64-core node with one-core fillers so capacity can
  // be handed back one core at a time — each release runs one
  // fair-share pass granting exactly one queued request, with the
  // dominant-share ledger updated between passes.
  std::vector<platform::Slot> filler_slots;
  for (int i = 0; i < 64; ++i) {
    ScheduleRequest filler;
    filler.uid = "filler" + std::to_string(i);
    filler.cores = 1;
    filler.granted = [&](platform::Slot slot, platform::Node*) {
      filler_slots.push_back(slot);
    };
    sched.submit(pilot.uid(), std::move(filler));
  }
  session.run();
  ASSERT_EQ(filler_slots.size(), 64u);

  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    sched.submit(pilot.uid(),
                 one_core("h" + std::to_string(i), "heavy", &order));
    sched.submit(pilot.uid(),
                 one_core("l" + std::to_string(i), "light", &order));
  }
  session.run();
  ASSERT_TRUE(order.empty());  // still full

  for (int i = 0; i < 8; ++i) {
    sched.release(pilot.uid(), filler_slots[i]);
    session.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i) + 1);
  }

  // Dominant shares replay the weights. Per grant the heavy tenant is
  // charged f/2 and the light tenant f (f = 1/64 of the pilot's
  // cores); the lowest accumulated share goes first, ties resolved by
  // global submission order. That walk is h0 l0 h1 l1 h2 h3 l2 l3 —
  // two heavy grants per light grant once the ledgers separate.
  EXPECT_EQ(order, (std::vector<std::string>{"h0", "l0", "h1", "l1", "h2",
                                             "h3", "l2", "l3"}));
  EXPECT_GT(sched.tenant_share("light"), sched.tenant_share("heavy"));
  EXPECT_TRUE(sched.fair_share());
}

TEST(TenantsTest, FairShareKeepsPriorityClassesAbsolute) {
  // Fair-share reorders only within a priority class; a higher-priority
  // request from the most-served tenant still outranks everyone.
  Session session{SessionConfig{.seed = 12}};
  session.add_platform(platform::delta_profile(1));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& sched = session.scheduler();
  sched.set_tenant_weight("a", 1.0);
  sched.set_tenant_weight("b", 1.0);

  std::vector<platform::Slot> filler_slots;
  ScheduleRequest filler;
  filler.uid = "filler";
  filler.cores = 64;
  filler.granted = [&](platform::Slot slot, platform::Node*) {
    filler_slots.push_back(slot);
  };
  sched.submit(pilot.uid(), std::move(filler));
  session.run();

  std::vector<std::string> order;
  sched.submit(pilot.uid(), one_core("a-low", "a", &order));
  sched.submit(pilot.uid(), one_core("b-low", "b", &order));
  ScheduleRequest urgent = one_core("a-high", "a", &order);
  urgent.priority = 5;
  sched.submit(pilot.uid(), std::move(urgent));
  session.run();

  sched.release(pilot.uid(), filler_slots.front());
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), "a-high");
}

// ---------------------------------------------------------------------------
// Cross-tenant priority-tie ordering (the WaitQueue audit)
// ---------------------------------------------------------------------------

struct TieRun {
  std::vector<std::string> order;
  std::uint64_t hash = 0;
};

TieRun run_tie_break() {
  Session session{SessionConfig{.seed = 21}};
  session.add_platform(platform::delta_profile(1));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& sched = session.scheduler();

  TieRun out;
  std::vector<platform::Slot> filler_slots;
  ScheduleRequest filler;
  filler.uid = "filler";
  filler.cores = 64;
  filler.granted = [&](platform::Slot slot, platform::Node*) {
    filler_slots.push_back(slot);
  };
  sched.submit(pilot.uid(), std::move(filler));
  session.run();

  // Two tenants interleave equal-priority submissions. No weights are
  // registered: grants must follow global (time, sequence) submission
  // order, never per-tenant or per-session insertion order.
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = i % 2 == 0 ? "sessionA" : "sessionB";
    sched.submit(pilot.uid(),
                 one_core("r" + std::to_string(i), tenant, &out.order));
  }
  session.run();
  sched.release(pilot.uid(), filler_slots.front());
  session.run();
  out.hash = sched.grant_log_hash();
  return out;
}

TEST(TenantsTest, CrossTenantTieBreakFollowsSubmissionOrder) {
  const TieRun first = run_tie_break();
  EXPECT_EQ(first.order, (std::vector<std::string>{"r0", "r1", "r2", "r3",
                                                   "r4", "r5"}));
  const TieRun rerun = run_tie_break();
  EXPECT_EQ(rerun.order, first.order);
  EXPECT_EQ(rerun.hash, first.hash);
}

// ---------------------------------------------------------------------------
// Weighted links and link quotas
// ---------------------------------------------------------------------------

TEST(TenantsTest, WeightedLinkSharesSplitBandwidthByWeight) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_tenant_weight("heavy", 3.0);
  engine.set_tenant_weight("light", 1.0);

  double done_heavy = -1.0;
  double done_light = -1.0;
  engine.transfer(
      "a", {"src"}, "dst", 10e9,
      [&](bool ok, sim::Duration) {
        EXPECT_TRUE(ok);
        done_heavy = loop.now();
      },
      "heavy");
  engine.transfer(
      "b", {"src"}, "dst", 10e9,
      [&](bool ok, sim::Duration) {
        EXPECT_TRUE(ok);
        done_light = loop.now();
      },
      "light");
  loop.run();

  // heavy flows at 750 MB/s while sharing -> done at 13.33 s; light
  // then owns the link for its remaining 6.67 GB -> done at 20 s.
  EXPECT_NEAR(done_heavy, 10e9 / 0.75e9, 0.1);
  EXPECT_NEAR(done_light, 20.0, 0.1);
  EXPECT_LT(done_heavy, done_light);
}

TEST(TenantsTest, LinkQuotaSerializesOverCapTenant) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  engine.set_tenant_link_quota("capped", 10e9);

  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    engine.transfer(
        "d" + std::to_string(i), {"src"}, "dst", 8e9,
        [&](bool ok, sim::Duration) {
          EXPECT_TRUE(ok);
          done.push_back(loop.now());
        },
        "capped");
  }
  loop.run();

  // 8 GB in flight is within the 10 GB quota; a second 8 GB transfer
  // would exceed it, so the three serialize at 8 s each instead of
  // fair-sharing to a common 24 s finish.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 8.0, 0.1);
  EXPECT_NEAR(done[1], 16.0, 0.1);
  EXPECT_NEAR(done[2], 24.0, 0.1);
}

TEST(TenantsTest, LinkQuotaNeverStarvesSoloTransfer) {
  sim::EventLoop loop;
  common::Rng rng(7);
  data::TransferEngine engine(loop, rng);
  engine.set_default_bandwidth(1e9);
  engine.set_setup_latency(common::Distribution::constant(0.0));
  // Quota below the transfer's own size: with nothing of its in
  // flight, the tenant is admitted anyway (quotas bound concurrency,
  // they must not deadlock a single oversized transfer).
  engine.set_tenant_link_quota("capped", 1e9);

  bool finished = false;
  engine.transfer(
      "big", {"src"}, "dst", 8e9,
      [&](bool ok, sim::Duration) { finished = ok; },
      "capped");
  loop.run();
  EXPECT_TRUE(finished);
}

// ---------------------------------------------------------------------------
// Shared content-addressed cache across tenants
// ---------------------------------------------------------------------------

TEST(TenantsTest, SecondTenantHitsFirstTenantsWarmReplica) {
  Session session{SessionConfig{.seed = 33}};
  session.add_platform(platform::delta_profile(2));
  (void)session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& data = session.data();
  data.add_store("delta", 1e12);
  // Both tenants register their own name for the same content.
  data.register_dataset("t0/corpus", 4e9, "archive", "cid:corpus");
  data.register_dataset("t1/corpus", 4e9, "archive", "cid:corpus");

  bool first = false;
  bool second = false;
  data.stage(
      {{"t0/corpus", "delta"}},
      [&](bool ok, const std::string&) { first = ok; }, "tenant0");
  session.run();
  ASSERT_TRUE(first);
  const double moved_after_first = data.bytes_moved();
  EXPECT_GT(moved_after_first, 0.0);

  // The second tenant's differently-named stage resolves to the warm
  // canonical replica: no second transfer, no extra bytes.
  data.stage(
      {{"t1/corpus", "delta"}},
      [&](bool ok, const std::string&) { second = ok; }, "tenant1");
  session.run();
  EXPECT_TRUE(second);
  EXPECT_DOUBLE_EQ(data.bytes_moved(), moved_after_first);
  EXPECT_EQ(data.transfers(), 1u);
}

// ---------------------------------------------------------------------------
// Session wiring and per-tenant accounting
// ---------------------------------------------------------------------------

TEST(TenantsTest, SessionApisThreadTenantsThroughWorkflows) {
  Session session{SessionConfig{.seed = 44}};
  session.enable_tracing();  // arm the per-tenant counters
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  session.set_tenant_weight("wf-tenant", 2.0);
  session.set_tenant_store_quota("delta", "wf-tenant", 1e12);
  session.set_tenant_link_quota("wf-tenant", 1e12);
  session.data().register_dataset("input", 1e9, "archive");
  wf::WorkflowManager workflows(session);

  TaskDescription task;
  task.kind = "modeled";
  task.cores = 1;
  task.duration = common::Distribution::constant(1.0);
  wf::Stage stage;
  stage.name = "consume";
  stage.consumes = {"input"};
  stage.tasks = {task};
  wf::Graph graph("tenant-graph");
  graph.tenant = "wf-tenant";
  graph.add(stage);

  wf::GraphResult result;
  workflows.run_graph(graph, pilot,
                      [&](const wf::GraphResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  // Every layer accounted the tenant: scheduler grants, transfer
  // counters, and the catalog's per-tenant pins paired up (an
  // unbalanced pin/unpin pair would have thrown mid-run).
  EXPECT_GE(session.counters().value("sched.grants.wf-tenant"), 1);
  EXPECT_GE(session.counters().value("data.transfers.wf-tenant"), 1);
  EXPECT_GT(session.scheduler().tenant_share("wf-tenant"), 0.0);
  EXPECT_EQ(session.data().catalog().pins("input", "delta"), 0u);
}

TEST(TenantsTest, ApiGuards) {
  Session session{SessionConfig{.seed = 55}};
  EXPECT_THROW(session.set_tenant_weight("", 1.0), Error);
  EXPECT_THROW(session.set_tenant_weight("t", 0.0), Error);
  EXPECT_THROW(session.set_tenant_link_quota("t", -1.0), Error);
  data::ReplicaCatalog catalog;
  catalog.add_store("z", 100.0);
  catalog.register_dataset("d", 10.0, "z");
  catalog.pin("d", "z", "a");
  // Unpinning under the wrong tenant must not touch tenant a's count.
  EXPECT_THROW(catalog.unpin("d", "z", "b"), Error);
  catalog.unpin("d", "z", "a");
}

}  // namespace
