// Micro-benchmarks of the runtime substrate (google-benchmark).
//
// These quantify the infrastructure costs underneath the paper's
// metrics: event-loop throughput and timeout churn, uid minting, string
// concatenation, JSON round-trips (the RPC payload format), router/RPC
// hops, entity state transitions, a node crash's walk, the capacity
// index's first fit, the wait queue, span tracing, scheduler
// grant/release cycles, the data plane's staging call, transfers and
// bandwidth re-planning, the replica catalog's lookups, LRU eviction
// and one task's calls, and placement ranking. They back the claim
// that architectural overheads are "minimal" relative to the modeled
// network and model costs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "ripple/common/ids.hpp"
#include "ripple/common/json.hpp"
#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/core/data_manager.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/session.hpp"
#include "ripple/core/states.hpp"
#include "ripple/data/catalog.hpp"
#include "ripple/data/placement_advisor.hpp"
#include "ripple/data/transfer_engine.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/core/wait_queue.hpp"
#include "ripple/metrics/tracer.hpp"
#include "ripple/msg/rpc.hpp"
#include "ripple/platform/capacity_index.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/event_loop.hpp"

namespace {

using namespace ripple;

void BM_EventLoopPostRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.call_after(static_cast<double>(i) * 1e-6, [] {});
    }
    benchmark::DoNotOptimize(loop.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopPostRun);

// Serving's per-request event pattern, as msg::RpcClient::call drives
// it: arm a timeout with call_after, get the reply after a network delay,
// and cancel the timeout when the reply is dispatched (post). 64
// closed-loop clients send 4096 requests per iteration; the timeout is
// 50 reply delays long, so cancelled timeouts sit in the heap among live
// events and drop out as they surface.
void BM_EventLoopTimeoutChurn(benchmark::State& state) {
  constexpr int kClients = 64;
  constexpr int kRequests = 4096;
  for (auto _ : state) {
    sim::EventLoop loop;
    int remaining = kRequests;
    std::function<void()> send = [&] {
      if (remaining == 0) return;
      --remaining;
      const auto timeout = loop.call_after(0.05, [] {});
      loop.call_after(1e-3, [&, timeout] {
        loop.post([&, timeout] {
          loop.cancel(timeout);
          send();
        });
      });
    };
    for (int i = 0; i < kClients; ++i) send();
    benchmark::DoNotOptimize(loop.run());
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_EventLoopTimeoutChurn);

// One entity uid, as a session's Runtime::make_uid mints them.
void BM_MakeUid(benchmark::State& state) {
  common::IdGenerator ids;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ids.next("task"));
  }
}
BENCHMARK(BM_MakeUid);

// The two strutil::cat shapes the dataflow workload builds most often:
// a workflow event-log line and a per-tenant counter name.
void BM_StrCat(benchmark::State& state) {
  const std::string node = "b2";
  const std::string tenant = "t1";
  const double now = 1234.5678;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strutil::cat(strutil::format_fixed(now, 3), " release ", node));
    benchmark::DoNotOptimize(strutil::cat("sched.grants.", tenant));
  }
}
BENCHMARK(BM_StrCat);

// One DataManager::stage call of four targets, drained through the loop.
// Arg 0: all four are resident, the common case (most of dataflow's
// staged targets already are). Arg 1: the fourth rides a long transfer
// already in flight, so the loop runs the three posted outcomes and the
// call is then withdrawn from the flight with cancel_stage.
void BM_Stage(benchmark::State& state) {
  const bool in_flight = state.range(0) == 1;
  core::Runtime runtime(7);
  core::DataManager data(runtime);
  data.set_default_bandwidth(1e9);
  std::vector<core::DataManager::StageTarget> targets;
  for (int i = 0; i < 4; ++i) {
    const std::string name = "t1/part" + std::to_string(i);
    data.register_dataset(name, 1e9, "delta");
    targets.push_back({name, "delta"});
  }
  if (in_flight) {
    data.register_dataset("t1/remote", 1e15, "archive");
    targets.back() = {"t1/remote", "delta"};
    (void)data.stage({targets.back()}, [](bool, const std::string&) {});
  }
  std::size_t landed = 0;
  for (auto _ : state) {
    const auto ticket =
        data.stage(targets, [&](bool ok, const std::string&) { landed += ok; });
    if (in_flight) {
      runtime.loop().run_until(runtime.loop().now());
      data.cancel_stage(ticket);
    } else {
      runtime.loop().run();
    }
  }
  benchmark::DoNotOptimize(landed);
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_Stage)->Arg(0)->Arg(1);

// The placement advisor's per-candidate query, as stage_in_time runs it
// for each dataset a node consumes: resolve the name, skip it when it is
// unknown or already in the zone, else read its size. The catalog is
// shaped like dataflow's: 24 corpus parts (half also in "lab") with 48
// aliases from two more tenants, and 6,000 intermediates and results of
// 1,200 diamond graphs. The 1,000 queries per iteration mix misses on
// intermediates not produced yet, alias hits and canonical hits in
// dataflow's proportions (78,000 : 25,600 : 39,200 per seed-1 run).
void BM_CatalogFind(benchmark::State& state) {
  data::ReplicaCatalog catalog;
  for (int t = 0; t < 3; ++t) {
    for (int p = 0; p < 24; ++p) {
      const std::string name = strutil::cat("t", t, "/part", p);
      const std::string cid = strutil::cat("cid:part", p);
      catalog.register_dataset(name, 4e9, "archive", cid);
      if (p % 2 == 0) catalog.register_dataset(name, 4e9, "lab", cid);
    }
  }
  const auto intermediate = [](int t, int g, int i) {
    return i < 4 ? strutil::cat("t", t, "/g", g, "/mid", i)
                 : strutil::cat("t", t, "/g", g, "/result");
  };
  for (int g = 0; g < 400; ++g) {
    for (int t = 0; t < 3; ++t) {
      for (int i = 0; i < 5; ++i) {
        catalog.register_dataset(intermediate(t, g, i), 1e9,
                                 (g + i) % 2 == 0 ? "delta" : "frontier");
      }
    }
  }
  common::Rng rng(11);
  std::vector<std::string> queries;
  for (int q = 0; q < 1000; ++q) {
    const auto t = static_cast<int>(rng.uniform_int(0, 2));
    const auto g = static_cast<int>(rng.uniform_int(0, 399));
    const auto i = static_cast<int>(rng.uniform_int(0, 3));
    const auto part = rng.uniform_int(0, 23);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 78.0 / 142.8) {  // an intermediate not produced yet
      queries.push_back(intermediate(t, g + 400, i));
    } else if (roll < (78.0 + 25.6) / 142.8) {  // another tenant's alias
      queries.push_back(strutil::cat("t", 1 + t % 2, "/part", part));
    } else if (roll < (78.0 + 25.6 + 19.6) / 142.8) {  // a canonical part
      queries.push_back(strutil::cat("t0/part", part));
    } else {  // a produced intermediate
      queries.push_back(intermediate(t, g, i));
    }
  }
  const std::string zone = "delta";
  for (auto _ : state) {
    double bytes = 0.0;
    for (const auto& name : queries) {
      const data::Dataset* ds = catalog.find(name);
      if (ds == nullptr || ds->zones.count(zone) != 0) continue;
      bytes += ds->bytes;
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_CatalogFind);

// One reservation into a full store, as a transfer's admission makes it:
// make_room walks the LRU index past the protected replicas at its head
// (two pinned by readers, two with lineage consumers left), evicts the
// oldest unprotected one, and the reservation is committed as a fresh
// replica of the evicted dataset, which refills the store.
void BM_CatalogMakeRoom(benchmark::State& state) {
  constexpr int kReplicas = 64;
  constexpr double kBytes = 1e9;
  data::ReplicaCatalog catalog;
  catalog.add_store("delta", kReplicas * kBytes);
  std::vector<std::string> evictable;
  for (int i = 0; i < kReplicas; ++i) {
    const std::string name = strutil::cat("t1/g", i, "/mid0");
    catalog.register_dataset(name, kBytes, "delta");
    if (i < 2) {
      catalog.pin(name, "delta");
    } else if (i < 4) {
      catalog.add_consumers(name, 1);
    } else {
      evictable.push_back(name);
    }
  }
  std::size_t next = 0;  // the LRU unprotected replica
  for (auto _ : state) {
    const bool reserved = catalog.reserve("delta", kBytes);
    catalog.commit_replica(evictable[next], "delta");
    next = (next + 1) % evictable.size();
    benchmark::DoNotOptimize(reserved);
  }
  const std::size_t last = (next + evictable.size() - 1) % evictable.size();
  const bool one_per_call =
      catalog.evictions() == static_cast<std::uint64_t>(state.iterations()) &&
      catalog.eviction_log().back() == "delta/" + evictable[last];
  if (!one_per_call) {
    state.SkipWithError("make_room did not evict one LRU replica per call");
  }
}
BENCHMARK(BM_CatalogMakeRoom);

// The catalog calls one dataflow branch task makes, over three tenants'
// names for a shared corpus (tenants 1 and 2 read through aliases): the
// graph takes a lineage reference on its input part and on its output,
// staging finds the part and touches its resident replica, the task
// pins it, registers its 1 GB output into the full store (make_room
// evicts the oldest unprotected intermediate) and unpins it, and both
// reads finish. The store holds 24 parts and 104 intermediates, 200 GB;
// outputs reuse a ring of 1,024 names whose replicas are long evicted
// when a name comes round again.
void BM_CatalogTaskCycle(benchmark::State& state) {
  constexpr int kParts = 24;
  constexpr int kOutputs = 1024;
  const std::string zone = "delta";
  data::ReplicaCatalog catalog;
  catalog.add_store(zone, 200e9);
  std::vector<std::string> tenants;
  std::vector<std::vector<std::string>> parts(3);
  for (int t = 0; t < 3; ++t) {
    tenants.push_back(strutil::cat("t", t));
    for (int p = 0; p < kParts; ++p) {
      parts[t].push_back(strutil::cat("t", t, "/part", p));
      const std::string cid = strutil::cat("cid:part", p);
      catalog.register_dataset(parts[t][p], 4e9, "archive", cid);
      if (p % 2 == 0) catalog.register_dataset(parts[t][p], 4e9, "lab", cid);
    }
  }
  for (int i = 0; i < 104; ++i) {
    catalog.register_dataset(strutil::cat("warm/mid", i), 1e9, zone);
  }
  for (int p = 0; p < kParts; ++p) {
    catalog.register_dataset(parts[0][p], 4e9, zone,
                             strutil::cat("cid:part", p));
  }
  std::vector<std::string> outputs;
  for (int i = 0; i < kOutputs; ++i) {
    outputs.push_back(strutil::cat("t", i % 3, "/g", i, "/mid", i % 4));
  }
  std::size_t cycle = 0;
  for (auto _ : state) {
    const std::string& tenant = tenants[cycle % 3];
    const std::string& part = parts[cycle % 3][cycle % kParts];
    const std::string& output = outputs[cycle % kOutputs];
    catalog.add_consumers(part, 1, tenant);
    catalog.add_consumers(output, 1, tenant);
    const data::Dataset* ds = catalog.find(part);
    if (ds->zones.count(zone) != 0) catalog.touch(ds->name, zone);
    catalog.pin(part, zone, tenant);
    catalog.register_dataset(output, 1e9, zone);
    catalog.unpin(part, zone, tenant);
    catalog.consume_done(part, tenant);
    const data::Dataset* out = catalog.find(output);
    catalog.touch(out->name, zone);
    catalog.consume_done(output, tenant);
    ++cycle;
  }
  if (catalog.evictions() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("an output did not evict exactly one replica");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogTaskCycle);

// PlacementAdvisor::best as the workflow engine calls it for each node
// it releases or predicts: two pilots (delta and frontier), the node's
// inputs resolved against the catalog and priced at each link's live
// newcomer rate. Corpus parts live in archive and (half of them) in lab,
// so their stage-in stripes over two links; a few transfers sit on
// those links so the rates are discounted. One iteration places the 48
// nodes of eight diamonds: per graph the src and four branches each
// read one part (tenants 1 and 2 through aliases) and the sink reads
// four intermediates, half resident in each compute zone.
void BM_PlacementBest(benchmark::State& state) {
  core::Session session({.seed = 5});
  session.add_platform(platform::delta_profile(1));
  session.add_platform(platform::frontier_profile(1));
  std::vector<core::Pilot*> pilots = {
      &session.submit_pilot({.platform = "delta", .nodes = 1}),
      &session.submit_pilot({.platform = "frontier", .nodes = 1})};
  core::DataManager& data = session.data();
  for (const char* zone : {"delta", "frontier"}) {
    data.add_store(zone, 200e9);
    data.set_bandwidth("archive", zone, 2.5e9);
    data.set_bandwidth("lab", zone, 2.5e9);
  }
  for (int t = 0; t < 3; ++t) {
    for (int p = 0; p < 24; ++p) {
      const std::string name = strutil::cat("t", t, "/part", p);
      const std::string cid = strutil::cat("cid:part", p);
      data.register_dataset(name, 4e9, "archive", cid);
      if (p % 2 == 0) data.register_dataset(name, 4e9, "lab", cid);
    }
  }
  std::vector<std::vector<std::string>> nodes;
  for (int g = 0; g < 8; ++g) {
    const std::string tenant = strutil::cat("t", g % 3);
    std::vector<std::string> mids;
    for (int n = 0; n < 5; ++n) {
      nodes.push_back({strutil::cat(tenant, "/part", (g * 5 + n * 7) % 24)});
    }
    for (int b = 0; b < 4; ++b) {
      const std::string mid = strutil::cat(tenant, "/g", g, "/mid", b);
      data.register_dataset(mid, 1e9, b % 2 == 0 ? "delta" : "frontier");
      mids.push_back(mid);
    }
    nodes.push_back(std::move(mids));
  }
  for (int i = 0; i < 3; ++i) {  // live links, never run
    data.engine().transfer(strutil::cat("noise", i), {"archive"},
                           i == 0 ? "frontier" : "delta", 1e15,
                           [](bool, sim::Duration) {});
  }
  data.engine().transfer("noise-lab", {"lab"}, "frontier", 1e15,
                         [](bool, sim::Duration) {});
  const data::PlacementAdvisor advisor(data.catalog(), &data.engine(),
                                       &session.scheduler());
  std::size_t on_delta = 0;
  for (auto _ : state) {
    for (const auto& consumes : nodes) {
      on_delta += advisor.best(pilots, consumes) == pilots[0];
    }
  }
  benchmark::DoNotOptimize(on_delta);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nodes.size()));
}
BENCHMARK(BM_PlacementBest);

// Transfers as dataflow makes them: each from one source replica, from
// the transfer call through setup, the fair-share replans of its link
// and its landing, drained through the loop. 64 transfers per iteration
// on four links (two archives and two compute zones), 16 on each.
void BM_TransferChurn(benchmark::State& state) {
  const std::vector<std::string> sources = {"archive", "lab"};
  const std::vector<std::string> zones = {"delta", "frontier"};
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) names.push_back(strutil::cat("t1/part", i));
  std::size_t landed = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    data::TransferEngine engine(loop, common::Rng(7));
    for (std::size_t i = 0; i < names.size(); ++i) {
      engine.transfer(names[i], {sources[i % 2]}, zones[i / 2 % 2], 4e9,
                      [&landed](bool ok, sim::Duration) { landed += ok; });
    }
    loop.run();
  }
  benchmark::DoNotOptimize(landed);
  const auto transfers =
      state.iterations() * static_cast<std::int64_t>(names.size());
  if (landed != static_cast<std::size_t>(transfers)) {
    state.SkipWithError("a transfer did not land");
  }
  state.SetItemsProcessed(transfers);
}
BENCHMARK(BM_TransferChurn);

// One "telemetry tick", TransferEngine::replan_all, over 28 links (every
// pair of eight zones) carrying three flowing transfers each, after a
// change of the default bandwidth. Loading the links and tearing them
// down is untimed; each iteration times 16 ticks. The tombstones of the
// timers a tick cancels are popped by the loop later, outside the tick.
void BM_TransferReplanAll(benchmark::State& state) {
  constexpr int kZones = 8;
  constexpr int kPerLink = 3;
  constexpr int kFlows = kZones * (kZones - 1) / 2 * kPerLink;
  constexpr int kTicks = 16;
  std::vector<std::string> zones;
  for (int z = 0; z < kZones; ++z) zones.push_back(strutil::cat("z", z));
  std::size_t replanned = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      sim::EventLoop loop;
      data::TransferEngine engine(loop, common::Rng(99));
      engine.set_setup_latency(common::Distribution::constant(0.05));
      engine.set_default_bandwidth(100.0);
      int id = 0;
      for (int a = 0; a < kZones; ++a) {
        for (int b = a + 1; b < kZones; ++b) {
          for (int k = 0; k < kPerLink; ++k) {
            engine.transfer(strutil::cat("d", id++), {zones[a]}, zones[b],
                            500.0 + 40.0 * k, [](bool, sim::Duration) {});
          }
        }
      }
      loop.run_until(1.0);  // every transfer is flowing
      state.ResumeTiming();
      for (int tick = 0; tick < kTicks; ++tick) {
        engine.set_default_bandwidth(tick % 2 == 0 ? 150.0 : 80.0);
        replanned += engine.replan_all();
      }
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(replanned);
  if (replanned != static_cast<std::size_t>(state.iterations() * kTicks *
                                             kFlows)) {
    state.SkipWithError("a tick did not replan every flow");
  }
  state.SetItemsProcessed(state.iterations() * kTicks);
}
BENCHMARK(BM_TransferReplanAll);

// The event-loop Callback is a small-buffer-optimized move-only type
// (common::UniqueFunction): captures up to 64 bytes live inline in the
// event, where std::function heap-allocates anything beyond its tiny
// SBO. The pair below measures the delta on a ~40-byte capture — the
// runtime's typical "this + uid string" closure — posted through the
// loop: the first stores it directly (inline, no allocation), the
// second routes the same lambda through a std::function first (the old
// Callback type), paying the per-event allocation.
struct FatCapture {
  double* sink;
  double a, b, c, d;
};

void BM_EventLoopCallbackInline(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    double sink = 0.0;
    const FatCapture fat{&sink, 1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < 1000; ++i) {
      loop.post([fat] { *fat.sink += fat.a + fat.b + fat.c + fat.d; });
    }
    benchmark::DoNotOptimize(loop.run());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopCallbackInline);

void BM_EventLoopCallbackStdFunction(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    double sink = 0.0;
    const FatCapture fat{&sink, 1.0, 2.0, 3.0, 4.0};
    for (int i = 0; i < 1000; ++i) {
      std::function<void()> boxed = [fat] {
        *fat.sink += fat.a + fat.b + fat.c + fat.d;
      };
      loop.post(std::move(boxed));
    }
    benchmark::DoNotOptimize(loop.run());
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopCallbackStdFunction);

void BM_JsonParseDump(benchmark::State& state) {
  const std::string text = R"({"uid":"task.000001","cores":4,"gpus":1,
    "payload":{"endpoints":["svc.0","svc.1"],"requests":1024,
    "concurrency":4,"series":"rt"},"priority":10,"tags":[1,2,3,4,5]})";
  for (auto _ : state) {
    json::Value value = json::Value::parse(text);
    benchmark::DoNotOptimize(value.dump());
  }
}
BENCHMARK(BM_JsonParseDump);

// One call and its reply through RpcClient, Router, Network and
// RpcServer. `echo`: short addresses, empty arguments, a latency-only
// link. `serving`: an inference client's shape, with uid-length
// addresses, the client's arguments and the server's reply body, over a
// link with bandwidth, so every message's wire size reaches its delay.
void BM_RpcRoundTrip(benchmark::State& state, const char* server_address,
                     const char* client_address, double bandwidth,
                     bool serving) {
  sim::EventLoop loop;
  common::Rng rng(1);
  sim::Network network(loop, rng.fork("net"));
  network.register_host("a", "z");
  network.register_host("b", "z");
  network.set_link(
      "z", "z",
      sim::LinkModel{common::Distribution::constant(1e-6), bandwidth});
  msg::Router router(loop, network);
  msg::RpcServer server(router, server_address, "a");
  server.bind_method("infer", [&](std::shared_ptr<msg::Responder> responder) {
    json::Value body = json::Value::object();
    if (serving) {
      body.set("model", "llama-8b");
      body.set("inference_s", 0.5);
      body.set("sequence", static_cast<std::int64_t>(17));
    }
    body.set("ok", true);
    responder->reply(std::move(body));
  });
  msg::RpcClient client(router, client_address, "b");
  for (auto _ : state) {
    bool completed = false;
    json::Value args = json::Value::object();
    if (serving) {
      args.set("prompt_tokens", 128);
      args.set("client", "task.000017");
    }
    client.call(server_address, "infer", std::move(args),
                [&](msg::CallResult) { completed = true; });
    loop.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_RpcRoundTrip, echo, "server", "client", 0.0, false);
BENCHMARK_CAPTURE(BM_RpcRoundTrip, serving, "svc.000003", "task.000017.cli",
                  3.125e9, true);

// One entity state transition as the managers report it through
// Runtime::publish_state: an append of (id, state, time) to the Timeline.
// 256 tasks are registered once; each iteration takes them through
// CREATED -> SCHEDULING -> SCHEDULED -> LAUNCHING -> RUNNING -> DONE,
// runs the loop and clears the Timeline's log. Arg(1) adds a "state"
// subscriber, which makes every transition build and deliver a JSON
// event as well.
void BM_StateTransition(benchmark::State& state) {
  constexpr core::TaskState kLifecycle[] = {
      core::TaskState::created,   core::TaskState::scheduling,
      core::TaskState::scheduled, core::TaskState::launching,
      core::TaskState::running,   core::TaskState::done};
  core::Runtime runtime(1);
  std::vector<metrics::Timeline::EntityId> tasks;
  for (int i = 0; i < 256; ++i) {
    tasks.push_back(
        runtime.timeline().add("task." + std::to_string(i), "task"));
  }
  std::size_t delivered = 0;
  if (state.range(0) != 0) {
    runtime.pubsub().subscribe(
        "state", [&delivered](const std::string&, const json::Value&) {
          ++delivered;
        });
  }
  for (auto _ : state) {
    for (const auto task : tasks) {
      for (const core::TaskState next : kLifecycle) {
        runtime.publish_state(task, core::to_string(next));
      }
    }
    runtime.loop().run();
    runtime.timeline().clear();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()) *
                          static_cast<std::int64_t>(std::size(kLifecycle)));
}
BENCHMARK(BM_StateTransition)->Arg(0)->Arg(1);

// A node crash as TaskManager::handle_node_failure takes it: M tasks
// hold slots on M / k nodes, k on each (first-fit fills node 0 first),
// restart budget 1. Building the session is untimed; each iteration
// times the node's failure and the walk that interrupts its k tasks,
// which visits only the tasks bound to that node.
void BM_NodeCrashWalk(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const auto per_node = static_cast<std::size_t>(state.range(1));
  const std::size_t nodes = tasks / per_node;
  std::size_t interrupted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      core::Session session({.seed = 5});
      session.add_platform(platform::delta_profile(nodes));
      auto& pilot = session.submit_pilot({.platform = "delta", .nodes = nodes});
      session.tasks().set_restart_policy({.max_restarts = 1});
      core::TaskDescription desc;
      desc.cores = 64 / per_node;
      desc.duration = common::Distribution::constant(100.0);
      session.tasks().submit_all(
          pilot, std::vector<core::TaskDescription>(tasks, desc));
      session.run_until(1.0);  // every task holds its slot
      platform::Cluster& cluster = session.cluster("delta");
      platform::Node& node = cluster.node(0);
      state.ResumeTiming();
      cluster.fail_node(node);
      interrupted += session.tasks().handle_node_failure(node);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  if (interrupted != static_cast<std::size_t>(state.iterations()) * per_node) {
    state.SkipWithError("the crash did not interrupt every task on the node");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeCrashWalk)->Args({512, 64})->Args({4096, 64})->Args({4096, 8});

// CapacityIndex::first_fit, the scheduler's placement probe: the lowest
// node whose free cores, GPUs and memory all cover a request. A seeded
// fill leaves each 64-core, 4-GPU node partly used; each iteration
// probes 64 seeded request shapes.
void BM_CapacityIndexFirstFit(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<platform::Node>> nodes;
  std::vector<platform::Node*> view;
  common::Rng rng(11);
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(std::make_unique<platform::Node>(
        strutil::cat("n", i), platform::NodeSpec{64, 4, 256.0},
        strutil::cat("h", i)));
    view.push_back(nodes.back().get());
    (void)view.back()->allocate(
        static_cast<std::size_t>(rng.uniform_int(0, 64)),
        static_cast<std::size_t>(rng.uniform_int(0, 4)), 0.0);
  }
  platform::CapacityIndex index;
  index.attach(view);
  struct Request {
    std::size_t cores;
    std::size_t gpus;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back({static_cast<std::size_t>(rng.uniform_int(1, 64)),
                        static_cast<std::size_t>(rng.uniform_int(0, 4))});
  }
  std::size_t placed = 0;
  for (auto _ : state) {
    for (const Request& r : requests) {
      placed += index.first_fit(r.cores, r.gpus, 0.0) != nullptr;
    }
  }
  benchmark::DoNotOptimize(placed);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_CapacityIndexFirstFit)->Arg(256)->Arg(4096);

// WaitQueue as the scheduler's backlog: 1,024 requests in four priority
// classes and four shapes pushed in submission order, then popped in
// grant order (higher priority first, then submission order).
void BM_WaitQueuePushPop(benchmark::State& state) {
  constexpr int kRequests = 1024;
  std::vector<core::ScheduleRequest> requests(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requests[i].uid = strutil::cat("task.", i);
    requests[i].cores = std::size_t{1} << (i % 4);
    requests[i].priority = i / 4 % 4;
  }
  std::size_t popped = 0;
  for (auto _ : state) {
    core::WaitQueue queue;
    for (int i = 0; i < kRequests; ++i) {
      queue.push({requests[i].priority, static_cast<std::uint64_t>(i)},
                 {requests[i], 0.0});
    }
    for (; !queue.empty(); ++popped) queue.erase(queue.begin());
  }
  benchmark::DoNotOptimize(popped);
  state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_WaitQueuePushPop);

// Tracer::begin/end as the TaskManager brackets a task: a root span and
// a queue-wait and a run span under it, for 256 tasks per iteration;
// the span log is cleared after each iteration.
void BM_TracerBeginEnd(benchmark::State& state) {
  metrics::Tracer tracer;
  tracer.set_enabled(true);
  std::vector<std::string> uids;
  for (int i = 0; i < 256; ++i) uids.push_back(strutil::cat("task.", i));
  for (auto _ : state) {
    double t = 0.0;
    for (const auto& uid : uids) {
      const metrics::SpanId root = tracer.begin("t", "task", uid, t);
      const metrics::SpanId queue =
          tracer.begin("queue-wait", "queue", uid, t, root);
      tracer.end(queue, t + 1.0);
      const metrics::SpanId run =
          tracer.begin("run", "compute", uid, t + 1.0, root);
      tracer.end(run, t + 2.0);
      tracer.end(root, t + 2.0);
      t += 0.5;
    }
    tracer.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(uids.size()) * 3);
}
BENCHMARK(BM_TracerBeginEnd);

void BM_SchedulerCycle(benchmark::State& state) {
  for (auto _ : state) {
    core::Session session({.seed = 3});
    session.add_platform(platform::delta_profile(4));
    auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
    int done = 0;
    for (int i = 0; i < 128; ++i) {
      core::TaskDescription desc;
      desc.cores = 8;
      desc.duration = common::Distribution::constant(0.01);
      const auto uid = session.tasks().submit(pilot, desc);
      session.tasks().when_done({uid}, [&](bool) { ++done; });
    }
    session.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SchedulerCycle);

void BM_SummaryQuantiles(benchmark::State& state) {
  common::Rng rng(9);
  common::Summary summary;
  for (int i = 0; i < 10000; ++i) summary.add(rng.lognormal(1.0, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(summary.quantile(0.95));
  }
}
BENCHMARK(BM_SummaryQuantiles);

void BM_NetworkDeliver(benchmark::State& state) {
  sim::EventLoop loop;
  common::Rng rng(5);
  sim::Network network(loop, rng.fork("net"));
  const sim::HostIndex a = network.register_host("a", "x");
  const sim::HostIndex b = network.register_host("b", "y");
  network.set_link("x", "y",
                   sim::LinkModel{
                       common::Distribution::normal(0.47e-3, 0.04e-3, 1e-6),
                       1.25e9});
  for (auto _ : state) {
    int arrived = 0;
    for (int i = 0; i < 100; ++i) {
      network.deliver(a, b, 512, [&] { ++arrived; });
    }
    loop.run();
    benchmark::DoNotOptimize(arrived);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NetworkDeliver);

}  // namespace

BENCHMARK_MAIN();
