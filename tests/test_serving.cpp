// Serving-layer tests: EventLoop now-queue fast path edge cases,
// adaptive micro-batching, client backpressure, and bit-exact
// determinism of the batched server + autoscaler pipeline.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/core/session.hpp"
#include "ripple/ml/autoscaler.hpp"
#include "ripple/ml/inference_server.hpp"
#include "ripple/ml/inference_service.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"

namespace {

using namespace ripple;
using namespace ripple::ml;

// ---------------------------------------------------------------------------
// EventLoop now-queue fast path
// ---------------------------------------------------------------------------

TEST(EventLoopFastPath, PostDuringPostRunsAfterPendingPosts) {
  sim::EventLoop loop;
  std::vector<int> order;
  loop.post([&] {
    order.push_back(1);
    loop.post([&] { order.push_back(3); });
  });
  loop.post([&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopFastPath, PostInterleavesWithSameTimeHeapEvents) {
  // Mixed call_at(now) and post() at the same timestamp must fire in
  // global posting order — the now-queue must not jump the heap.
  sim::EventLoop loop;
  std::vector<char> order;
  loop.call_at(0.0, [&] { order.push_back('a'); });
  loop.post([&] { order.push_back('b'); });
  loop.call_at(0.0, [&] { order.push_back('c'); });
  loop.post([&] { order.push_back('d'); });
  loop.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(EventLoopFastPath, CancelNowQueuedEvent) {
  sim::EventLoop loop;
  bool ran = false;
  const auto handle = loop.post([&] { ran = true; });
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_TRUE(loop.cancel(handle));
  EXPECT_FALSE(loop.cancel(handle));  // already cancelled
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.cancelled_backlog(), 0u);  // skimmed, no leak
}

TEST(EventLoopFastPath, CancelPostedEventFromEarlierEvent) {
  sim::EventLoop loop;
  bool second_ran = false;
  sim::EventLoop::TimerHandle second;
  loop.post([&] { EXPECT_TRUE(loop.cancel(second)); });
  second = loop.post([&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoopFastPath, RunUntilBoundaryIncludesDeadlinePosts) {
  // An event at exactly the deadline runs, and a post() it makes (same
  // time) runs too before run_until returns; now() lands on deadline.
  sim::EventLoop loop;
  std::vector<int> order;
  loop.call_at(2.0, [&] {
    order.push_back(1);
    loop.post([&] { order.push_back(2); });
  });
  loop.call_at(2.5, [&] { order.push_back(99); });
  EXPECT_EQ(loop.run_until(2.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
  // The 2.5 event is untouched and runs on the next call.
  EXPECT_EQ(loop.run_until(3.0), 1u);
  EXPECT_EQ(order.back(), 99);
  EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoopFastPath, PendingCountsBothQueues) {
  sim::EventLoop loop;
  const auto a = loop.post([] {});
  loop.post([] {});
  loop.call_after(1.0, [] {});
  EXPECT_EQ(loop.pending(), 3u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopFastPath, PostRejectsEmptyCallback) {
  sim::EventLoop loop;
  EXPECT_THROW(loop.post(sim::EventLoop::Callback{}), Error);
}

// ---------------------------------------------------------------------------
// Adaptive micro-batching
// ---------------------------------------------------------------------------

class BatchServerFixture : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  common::Rng rng{5};
  sim::Network net{loop, rng};
  msg::Router router{loop, net};
  std::unique_ptr<msg::RpcServer> rpc_server;
  std::unique_ptr<msg::RpcClient> rpc_client;
  std::unique_ptr<InferenceServer> server;

  void SetUp() override {
    net.register_host("s", "z");
    net.register_host("c", "z");
    net.set_link("z", "z",
                 sim::LinkModel{common::Distribution::constant(1e-4), 0});
    rpc_server = std::make_unique<msg::RpcServer>(router, "svc", "s");
    rpc_client = std::make_unique<msg::RpcClient>(router, "cli", "c");
  }

  /// A deterministic LLM-ish model: 1 s per request, perfect batching.
  static ModelSpec second_model() {
    ModelSpec model = noop_model();
    model.parse = common::Distribution::constant(0.0);
    model.serialize = common::Distribution::constant(0.0);
    model.tokens_out = common::Distribution::constant(100.0);
    model.per_token_s = 0.01;
    model.inference_floor_s = 0.0;
    model.batch_cost_slope = 0.0;
    return model;
  }

  void make_server(ModelSpec model, ServerConfig config) {
    server = std::make_unique<InferenceServer>(loop, common::Rng(6),
                                               std::move(model), config);
    rpc_server->bind_method("infer",
                            [this](std::shared_ptr<msg::Responder> r) {
                              server->handle(std::move(r));
                            });
  }

};

TEST_F(BatchServerFixture, FullBatchDispatchesWithoutWaitingForWindow) {
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 2,
                           .batch_window = 10.0});
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       ++completed;
                     });
  }
  loop.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(server->batches(), 2u);
  EXPECT_EQ(server->batch_trace(), (std::vector<std::uint32_t>{2, 2}));
  // Two full batches of 1 s each, never the 10 s window.
  EXPECT_LT(loop.now(), 3.0);
}

TEST_F(BatchServerFixture, WindowFlushesPartialBatch) {
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 8,
                           .batch_window = 0.05});
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       ++completed;
                     });
  }
  loop.run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(server->batches(), 1u);
  EXPECT_EQ(server->batch_trace(), (std::vector<std::uint32_t>{3}));
  // One window wait plus one batched second.
  EXPECT_NEAR(loop.now(), 1.05, 0.01);
}

TEST_F(BatchServerFixture, BatchingCollapsesMakespan) {
  // 8 one-second requests: serial = 8 s; batch-of-8 = 1 s (+window).
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 8,
                           .batch_window = 0.02});
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       ++completed;
                     });
  }
  loop.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(server->batches(), 1u);
  EXPECT_LT(loop.now(), 1.5);
  EXPECT_EQ(server->served(), 8u);
}

TEST_F(BatchServerFixture, BatchCostSlopeStretchesBatch) {
  ModelSpec model = second_model();
  model.batch_cost_slope = 0.25;  // batch of 4: 1.75x a single request
  make_server(model, ServerConfig{.max_concurrency = 1,
                                  .max_queue = 0,
                                  .max_batch = 4,
                                  .batch_window = 0.01});
  for (int i = 0; i < 4; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [](msg::CallResult) {});
  }
  loop.run();
  EXPECT_EQ(server->batches(), 1u);
  EXPECT_NEAR(server->inference_times().mean(), 1.75, 1e-9);
}

TEST_F(BatchServerFixture, BoundedQueueRejectsWhileBatching) {
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 2,
                           .max_batch = 2,
                           .batch_window = 10.0});
  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       if (r.ok) {
                         ++ok;
                       } else {
                         EXPECT_NE(r.error.find("queue full"),
                                   std::string::npos);
                         ++rejected;
                       }
                     });
  }
  loop.run();
  EXPECT_EQ(ok + rejected, 6);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(server->rejected(), static_cast<std::uint64_t>(rejected));
}

TEST_F(BatchServerFixture, DestructionWithPendingWorkIsSafe) {
  // A failed/killed service tears its server down with a batch window
  // armed or an inference in flight; pending callbacks must no-op.
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 4,
                           .batch_window = 0.05});
  for (int i = 0; i < 3; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [](msg::CallResult) {}, /*timeout=*/5.0);
  }
  loop.run_until(0.01);   // requests queued, batch window armed
  ASSERT_GT(server->queue_depth(), 0u);
  server.reset();         // service died mid-window
  loop.run_until(0.2);    // window event fires into the dead server

  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 4,
                           .batch_window = 0.02});
  rpc_client->call("svc", "infer", json::Value::object(),
                   [](msg::CallResult) {}, /*timeout=*/5.0);
  loop.run_until(0.5);    // batch dispatched, 1 s inference in flight
  ASSERT_GT(server->busy(), 0u);
  server.reset();         // service died mid-inference
  loop.run();             // inference/serialize callbacks must no-op
  SUCCEED();              // reaching here without UB/crash is the test
}

TEST(EndpointDirectory, TracksRunningServices) {
  core::Session session({.seed = 3});
  ml::install(session);
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});

  core::ServiceDescription svc;
  svc.name = "dir-svc";
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "noop"}});
  svc.gpus = 1;
  const std::string uid = session.services().submit(pilot, svc);

  EXPECT_TRUE(session.runtime().endpoints_of("dir-svc").empty());
  session.services().when_ready({uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    // Synchronous directory: visible the instant the service RUNs,
    // before any pub/sub event is delivered.
    const auto endpoints = session.runtime().endpoints_of("dir-svc");
    ASSERT_EQ(endpoints.size(), 1u);
    EXPECT_EQ(endpoints[0], session.services().get(uid).endpoint());
    session.services().stop_all();
  });
  session.run();
  EXPECT_TRUE(session.runtime().endpoints_of("dir-svc").empty());
}

// ---------------------------------------------------------------------------
// Continuous batching
// ---------------------------------------------------------------------------

TEST_F(BatchServerFixture, ContinuousRepliesPerSequenceNotAtBatchEnd) {
  // Two staggered one-second requests share the decode loop (slope 0):
  // A finishes at ~1.0 s and replies immediately; B joined at ~0.5 s
  // and finishes at ~1.5 s. Fixed batching would hold A's reply until
  // the batch end.
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 8,
                           .batch_window = 0.0,
                           .continuous = true});
  std::vector<double> done_at(2, -1.0);
  rpc_client->call("svc", "infer", json::Value::object(),
                   [&](msg::CallResult r) {
                     ASSERT_TRUE(r.ok);
                     done_at[0] = loop.now();
                   });
  loop.call_at(0.5, [&] {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       done_at[1] = loop.now();
                     });
  });
  loop.run();
  EXPECT_NEAR(done_at[0], 1.0, 0.01);
  EXPECT_NEAR(done_at[1], 1.5, 0.01);
  // Admission trace: A joined a batch of 1, B grew it to 2.
  EXPECT_EQ(server->batch_trace(), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(server->completion_order(),
            (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(server->served(), 2u);
}

TEST_F(BatchServerFixture, ContinuousChargesStepFactorPerSegment) {
  // Two simultaneous sequences with batch_cost_slope 0.25 decode at
  // 1/1.25 of solo rate: both finish at 1.25 s, not 1 s (and not the
  // fixed-batch 1.25 s *after a window*). A third request arriving
  // mid-flight re-settles progress at the 3-sequence rate.
  ModelSpec model = second_model();
  model.batch_cost_slope = 0.25;
  make_server(model, ServerConfig{.max_concurrency = 1,
                                  .max_queue = 0,
                                  .max_batch = 8,
                                  .batch_window = 0.0,
                                  .continuous = true});
  std::vector<double> done_at;
  for (int i = 0; i < 2; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       done_at.push_back(loop.now());
                     });
  }
  loop.run();
  ASSERT_EQ(done_at.size(), 2u);
  // Ties complete together at the same boundary, admission order.
  EXPECT_NEAR(done_at[0], 1.25, 0.01);
  EXPECT_NEAR(done_at[1], 1.25, 0.01);
  EXPECT_EQ(server->completion_order(),
            (std::vector<std::uint64_t>{0, 1}));
}

TEST_F(BatchServerFixture, ContinuousAdmitsFreedSlotsAtBoundaries) {
  // max_batch 2 with four simultaneous arrivals: two admitted, two wait
  // queued; the freed slots admit them at the completion boundary. The
  // batch size never exceeds 2 anywhere in the trace.
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 2,
                           .batch_window = 0.0,
                           .continuous = true});
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       ++completed;
                     });
  }
  loop.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(server->batch_trace(),
            (std::vector<std::uint32_t>{1, 2, 1, 2}));
  for (const std::uint32_t size : server->batch_trace()) {
    EXPECT_LE(size, 2u);
  }
  EXPECT_EQ(server->completion_order(),
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_NEAR(loop.now(), 2.0, 0.01);
}

TEST_F(BatchServerFixture, ContinuousRecordsLatencyWindow) {
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 4,
                           .batch_window = 0.0,
                           .continuous = true,
                           .latency_window = 30.0});
  for (int i = 0; i < 3; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [](msg::CallResult) {});
  }
  loop.run();
  // Three simultaneous one-second sequences, slope 0: every latency is
  // ~1 s (arrival -> reply, including the rpc hop) and all sit in the
  // window.
  EXPECT_EQ(server->request_latencies().count(), 3u);
  EXPECT_EQ(server->latency_window().count(loop.now()), 3u);
  EXPECT_NEAR(server->latency_window().quantile(loop.now(), 0.95), 1.0,
              0.05);
}

TEST_F(BatchServerFixture,
       TeardownMidContinuousBatchDoesNotRereplyCompletedSequences) {
  // The liveness-token regression, continuous edition: a server torn
  // down with a *partially completed* running batch — some sequences
  // already replied, others still decoding — must neither reply to the
  // completed sequences a second time (Responder::reply throws on
  // double reply, so that would surface as a crash) nor touch the
  // still-running ones.
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 8,
                           .batch_window = 0.0,
                           .continuous = true});
  std::vector<int> replies(3, 0);
  // A finishes at ~1.0 s; B and C (arriving at 0.4/0.6 s) are still
  // decoding when the server dies at 1.2 s.
  rpc_client->call("svc", "infer", json::Value::object(),
                   [&](msg::CallResult r) {
                     ASSERT_TRUE(r.ok);
                     ++replies[0];
                   });
  loop.call_at(0.4, [&] {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult) { ++replies[1]; });
  });
  loop.call_at(0.6, [&] {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult) { ++replies[2]; });
  });
  loop.run_until(1.2);
  ASSERT_EQ(replies[0], 1);             // A completed and replied
  ASSERT_EQ(server->served(), 1u);
  ASSERT_EQ(server->running_sequences(), 2u);  // B, C mid-decode
  server.reset();                       // teardown mid-continuous-batch
  loop.run();                           // pending decode/reply events fire
  EXPECT_EQ(replies[0], 1);             // never re-replied
  EXPECT_EQ(replies[1], 0);             // dropped, like a crashed server
  EXPECT_EQ(replies[2], 0);
}

TEST(ModelBatching, StepFactorAndSequenceWork) {
  const ModelSpec llama = llama_8b_model();
  EXPECT_DOUBLE_EQ(llama.step_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(llama.step_factor(4),
                   1.0 + 3.0 * llama.batch_cost_slope);
  EXPECT_DOUBLE_EQ(llama.sequence_work(120.0),
                   llama.inference_floor_s + 120.0 * llama.per_token_s);
  EXPECT_DOUBLE_EQ(llama.sequence_work(-5.0), llama.inference_floor_s);
}

TEST(ModelBatching, BatchDurationMatchesSingleAtSizeOne) {
  const ModelSpec llama = llama_8b_model();
  EXPECT_DOUBLE_EQ(llama.batch_duration({120.0}),
                   llama.inference_floor_s + 120.0 * llama.per_token_s);
  // Longest sequence governs; slope charges per extra sequence.
  const double batched = llama.batch_duration({60.0, 120.0, 90.0});
  const double expected =
      llama.inference_floor_s +
      120.0 * llama.per_token_s * (1.0 + llama.batch_cost_slope * 2.0);
  EXPECT_DOUBLE_EQ(batched, expected);
  EXPECT_DOUBLE_EQ(llama.batch_duration({}), 0.0);
  // Batching a full batch is far cheaper than serial execution.
  EXPECT_LT(llama.mean_batch_duration(8), 8.0 * llama.mean_inference());
}

// ---------------------------------------------------------------------------
// Serving determinism: batched server + autoscaler + watching clients
// ---------------------------------------------------------------------------

struct ServingTrace {
  std::uint64_t events = 0;
  std::size_t requests = 0;
  /// The message path: Router sends, network deliveries and the bytes
  /// they carried (the sum pins every message's wire size).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  /// FNV-1a over every "det" RT sample: total, then communication,
  /// service and inference, each in arrival order.
  std::uint64_t det_hash = common::kFnvOffsetBasis;
  double makespan = 0.0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::vector<double> decision_times;
  std::vector<std::uint64_t> served;
  std::vector<std::uint64_t> rejected;
  std::vector<std::uint32_t> batch_sizes;  // concatenated, replica order
  std::vector<std::uint64_t> completion_hashes;  // continuous runs
  std::size_t stopped_services = 0;

  bool operator==(const ServingTrace&) const = default;
};

/// Six watching clients on an autoscaled pool. With `remote`, two
/// preloaded services also run on an R3 node and every odd client calls
/// them instead, so messages take the loopback, intra-zone and
/// delta<->r3 links.
ServingTrace run_serving(std::uint64_t seed, bool continuous = false,
                         bool remote = false) {
  core::Session session({.seed = seed});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});
  std::vector<std::string> remote_uids;
  if (remote) {
    auto& r3 = session.add_platform(platform::r3_profile(1));
    core::ServiceDescription far;
    far.name = "far";
    far.program = "inference";
    far.config = json::Value::object(
        {{"model", "llama-8b"}, {"max_batch", 4}, {"preloaded", true}});
    if (continuous) far.config.set("continuous", true);
    far.gpus = 1;
    for (int i = 0; i < 2; ++i) {
      remote_uids.push_back(session.services().register_remote(r3, far, 0));
    }
  }

  core::ServiceDescription replica;
  replica.name = "pool";
  replica.program = "inference";
  replica.config = json::Value::object({{"model", "llama-8b"},
                                        {"max_batch", 4},
                                        {"batch_window", 0.02},
                                        {"max_queue", 8}});
  if (continuous) replica.config.set("continuous", true);
  replica.gpus = 1;

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 3;
  scaling.scale_up_outstanding = 4.0;
  scaling.scale_down_outstanding = 0.5;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 1.0;
  Autoscaler scaler(session, pilot, replica, scaling);

  ServingTrace trace;
  double start = 0.0;
  scaler.start([&](bool ok) {
    if (!ok) {
      ADD_FAILURE() << "serving bootstrap failed";
      session.loop().stop();  // the poll timer would keep run() alive
      return;
    }
    start = session.now();
    std::vector<std::string> task_uids;
    for (int c = 0; c < 6; ++c) {
      const bool far = remote && c % 2 == 1;
      core::TaskDescription task;
      task.kind = "inference_client";
      json::Value endpoints = json::Value::array();
      for (const auto& endpoint : far ? remote_uids : scaler.endpoints()) {
        endpoints.push_back(endpoint);
      }
      task.payload = json::Value::object({{"endpoints", endpoints},
                                          {"requests", 12},
                                          {"concurrency", 3},
                                          {"series", "det"},
                                          {"balancer", "least_outstanding"},
                                          {"max_retries", 12},
                                          {"retry_backoff", 0.2}});
      if (!far) task.payload.set("watch", "pool");
      task_uids.push_back(session.tasks().submit(pilot, task));
    }
    session.tasks().when_done(task_uids, [&](bool) {
      trace.makespan = session.now() - start;
      // replicas() holds only live uids (terminal ones are pruned each
      // poll), so the drained replicas' counters, and the remote
      // services', come from the ServiceManager.
      for (const auto& uid : session.services().uids()) {
        auto* program = dynamic_cast<InferenceProgram*>(
            session.services().program(uid));
        if (program == nullptr || program->server() == nullptr) continue;
        trace.served.push_back(program->server()->served());
        trace.rejected.push_back(program->server()->rejected());
        const auto& batch_trace = program->server()->batch_trace();
        trace.batch_sizes.insert(trace.batch_sizes.end(),
                                 batch_trace.begin(), batch_trace.end());
        trace.completion_hashes.push_back(
            program->server()->completion_hash());
      }
      scaler.stop();
      for (const auto& uid : remote_uids) session.services().stop(uid);
    });
  });
  session.run();

  trace.events = session.loop().events_processed();
  trace.messages_sent = session.runtime().router().sent();
  trace.messages_delivered = session.runtime().network().messages_delivered();
  trace.bytes_delivered = session.runtime().network().bytes_delivered();
  if (session.metrics().has_series("det")) {
    const metrics::RequestSeries& det = session.metrics().series("det");
    trace.requests = det.count();
    for (const common::Summary* part :
         {&det.total, &det.communication, &det.service, &det.inference}) {
      for (const double sample : part->samples()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &sample, sizeof bits);
        trace.det_hash = common::fnv1a(trace.det_hash, bits);
      }
    }
  }
  trace.scale_ups = scaler.scale_ups();
  trace.scale_downs = scaler.scale_downs();
  for (const auto& decision : scaler.decisions()) {
    trace.decision_times.push_back(decision.time);
  }
  trace.stopped_services =
      session.services().count_in_state(core::ServiceState::stopped);
  return trace;
}

TEST(ServingDeterminism, SameSeedBitIdenticalTraces) {
  const ServingTrace a = run_serving(21);
  const ServingTrace b = run_serving(21);
  EXPECT_EQ(a, b);
  // The run exercised the whole elastic path.
  EXPECT_EQ(a.requests, 6u * 12u);
  EXPECT_GT(a.scale_ups, 0u);
  EXPECT_FALSE(a.batch_sizes.empty());
  // Every replica was drained and stopped at the end.
  EXPECT_EQ(a.stopped_services, a.served.size());
}

TEST(ServingDeterminism, ContinuousSameSeedBitIdenticalTraces) {
  // The whole elastic path again, with continuous batching on every
  // replica: admission traces, per-sequence completion hashes and
  // scaling decisions must all be bit-identical under one seed.
  const ServingTrace a = run_serving(27, /*continuous=*/true);
  const ServingTrace b = run_serving(27, /*continuous=*/true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.requests, 6u * 12u);
  EXPECT_FALSE(a.batch_sizes.empty());
  // At least one replica actually interleaved sequences (a batch grew
  // past one mid-flight).
  bool interleaved = false;
  for (const std::uint32_t size : a.batch_sizes) {
    if (size > 1) interleaved = true;
  }
  EXPECT_TRUE(interleaved);
}

// The message path, pinned: Router sends, network deliveries, the bytes
// they carried (every message's wire size) and every RT sample. A change
// to routing, message numbering, wire sizes or the order of delay draws
// moves at least one of these.
TEST(ServingDeterminism, MessagePathIsPinned) {
  struct Pin {
    std::uint64_t seed;
    bool continuous;
    bool remote;
    std::uint64_t events;
    std::uint64_t sent;
    std::uint64_t bytes;
    std::uint64_t det_hash;
  };
  const Pin pins[] = {
      {21, false, false, 843, 254, 47300, 0xc587f8c8bc57672eull},
      {27, true, false, 865, 246, 46176, 0x0183bbe030a19a6dull},
      {21, false, true, 514, 150, 29880, 0x569cb31278b04c8eull},
      {27, true, true, 622, 150, 30096, 0xb6c4a047b49feff9ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed << " continuous "
                                    << pin.continuous << " remote "
                                    << pin.remote);
    const ServingTrace trace =
        run_serving(pin.seed, pin.continuous, pin.remote);
    EXPECT_EQ(trace.requests, 6u * 12u);
    EXPECT_EQ(trace.events, pin.events);
    EXPECT_EQ(trace.messages_sent, pin.sent);
    EXPECT_EQ(trace.messages_delivered, pin.sent);
    EXPECT_EQ(trace.bytes_delivered, pin.bytes);
    EXPECT_EQ(trace.det_hash, pin.det_hash) << std::hex << trace.det_hash;
  }
}

TEST(ServingDeterminism, DifferentSeedsDiverge) {
  const ServingTrace a = run_serving(21);
  const ServingTrace b = run_serving(22);
  EXPECT_EQ(b.requests, 6u * 12u);  // structure invariant
  EXPECT_NE(a.makespan, b.makespan);  // stochastic draws differ
}

// ---------------------------------------------------------------------------
// Client backpressure
// ---------------------------------------------------------------------------

/// One tiny service with a 2-deep queue, hammered by eager clients.
/// Without retries, rejects surface as failed requests; with bounded
/// backoff every request eventually lands.
struct BackpressureOutcome {
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t retried = 0;
  std::size_t tasks_done = 0;
  std::size_t tasks_failed = 0;
};

BackpressureOutcome run_backpressure(std::size_t max_retries) {
  core::Session session({.seed = 9});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription svc;
  svc.name = "tiny";
  svc.program = "inference";
  svc.config = json::Value::object(
      {{"model", "llama-8b"}, {"max_queue", 2}});
  svc.gpus = 1;
  const std::string svc_uid = session.services().submit(pilot, svc);

  BackpressureOutcome outcome;
  std::vector<std::string> task_uids;
  session.services().when_ready({svc_uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    const std::string endpoint = session.services().get(svc_uid).endpoint();
    for (int c = 0; c < 4; ++c) {
      core::TaskDescription task;
      task.kind = "inference_client";
      task.payload = json::Value::object(
          {{"endpoints", json::Value::array({endpoint})},
           {"requests", 8},
           {"concurrency", 4},
           {"series", "bp"},
           {"max_retries", max_retries},
           {"retry_backoff", 0.2},
           {"retry_multiplier", 2.0}});
      task_uids.push_back(session.tasks().submit(pilot, task));
    }
    session.tasks().when_done(
        task_uids, [&](bool) { session.services().stop_all(); });
  });
  session.run();

  for (const auto& uid : task_uids) {
    const core::Task& task = session.tasks().get(uid);
    if (task.state() == core::TaskState::done) {
      ++outcome.tasks_done;
      outcome.ok += static_cast<std::size_t>(
          task.result().get_or("ok", json::Value(0)).as_int());
      outcome.failed += static_cast<std::size_t>(
          task.result().get_or("failed", json::Value(0)).as_int());
      outcome.retried += static_cast<std::size_t>(
          task.result().get_or("retried", json::Value(0)).as_int());
    } else {
      ++outcome.tasks_failed;
    }
  }
  return outcome;
}

TEST(ClientBackpressure, BoundedRetriesAbsorbRejects) {
  const BackpressureOutcome with_retries = run_backpressure(10);
  EXPECT_EQ(with_retries.tasks_done, 4u);
  EXPECT_EQ(with_retries.ok, 4u * 8u);   // everything eventually served
  EXPECT_EQ(with_retries.failed, 0u);
  EXPECT_GT(with_retries.retried, 0u);   // the queue did overflow

  const BackpressureOutcome no_retries = run_backpressure(0);
  const std::size_t no_retry_ok = no_retries.ok;
  // Fail-fast clients lose the overflow rejects (or entire tasks).
  EXPECT_LT(no_retry_ok, 4u * 8u);
}

// ---------------------------------------------------------------------------
// Autoscaler behaviour
// ---------------------------------------------------------------------------

TEST(Autoscaler, ValidatesConfig) {
  core::Session session({.seed = 1});
  ml::install(session);
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  core::ServiceDescription replica;
  replica.program = "inference";

  AutoscalerConfig bad;
  bad.min_replicas = 0;
  EXPECT_THROW(Autoscaler(session, pilot, replica, bad), Error);
  bad = {};
  bad.max_replicas = 0;
  EXPECT_THROW(Autoscaler(session, pilot, replica, bad), Error);
  bad = {};
  bad.scale_up_outstanding = 1.0;
  bad.scale_down_outstanding = 2.0;
  EXPECT_THROW(Autoscaler(session, pilot, replica, bad), Error);
}

TEST(Autoscaler, RepairsPoolAfterAllReplicasFail) {
  core::Session session({.seed = 13});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription replica;
  replica.name = "fragile";
  replica.program = "inference";
  replica.config = json::Value::object({{"model", "noop"}});
  replica.gpus = 1;
  replica.monitor = true;  // liveness detection is what declares death
  replica.heartbeat_interval = 0.5;
  replica.heartbeat_misses = 2;

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 2;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  Autoscaler scaler(session, pilot, replica, scaling);

  bool killed = false;
  std::string killed_uid;
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    killed_uid = scaler.replicas().front();
    session.services().kill(killed_uid);
    killed = true;
  });
  // Liveness timeout (~1 s) fails the replica; the next poll after the
  // cooldown must rebuild the pool from zero.
  session.run_until(20.0);
  EXPECT_TRUE(killed);
  EXPECT_GT(scaler.repairs(), 0u);
  EXPECT_EQ(scaler.running_replicas(), 1u);
  // A fresh uid was submitted and the dead one was pruned: the uid
  // list tracks the live pool, not the crash history.
  ASSERT_EQ(scaler.replicas().size(), 1u);
  EXPECT_NE(scaler.replicas().front(), killed_uid);

  bool stopped = false;
  scaler.stop([&] { stopped = true; });
  session.run();
  EXPECT_TRUE(stopped);
}

TEST(Autoscaler, ScaleDownDrainsLeastLoadedReplica) {
  core::Session session({.seed = 21});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription replica;
  replica.name = "skewed-pool";
  replica.program = "inference";
  replica.config = json::Value::object({{"model", "llama-8b"}});
  replica.gpus = 1;

  AutoscalerConfig scaling;
  scaling.min_replicas = 2;
  scaling.max_replicas = 2;
  Autoscaler scaler(session, pilot, replica, scaling);

  msg::RpcClient prober(session.runtime().router(), "prober",
                        session.cluster("delta").head_host());
  std::string victim;
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    // Pin slow inferences onto the NEWEST replica only; the oldest
    // replica idles. The legacy policy always drained the newest —
    // exactly the replica carrying all the load.
    const std::string loaded =
        session.services().get(scaler.replicas().back()).endpoint();
    for (int i = 0; i < 3; ++i) {
      prober.call(loaded, "infer", json::Value::object(),
                  [](msg::CallResult) {});
    }
    session.loop().call_after(1.0, [&] {
      victim = scaler.scale_down_victim();
      scaler.stop();
    });
  });
  session.run();

  ASSERT_EQ(scaler.replicas().size(), 2u);
  EXPECT_EQ(victim, scaler.replicas().front());  // the idle one drains
  EXPECT_NE(victim, scaler.replicas().back());
}

TEST(Autoscaler, ScaleDownVictimPrefersNewestWhenIdle) {
  core::Session session({.seed = 22});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription replica;
  replica.name = "idle-pool";
  replica.program = "inference";
  replica.config = json::Value::object({{"model", "noop"}});
  replica.gpus = 1;

  AutoscalerConfig scaling;
  scaling.min_replicas = 3;
  scaling.max_replicas = 3;
  Autoscaler scaler(session, pilot, replica, scaling);

  std::string victim;
  scaler.start([&](bool ok) {
    ASSERT_TRUE(ok);
    // Evenly idle pool: ties keep the oldest replicas (legacy
    // behaviour), minimizing endpoint churn.
    victim = scaler.scale_down_victim();
    scaler.stop();
  });
  session.run();
  EXPECT_EQ(victim, scaler.replicas().back());
}

TEST(ClientWatch, DeferredRemovalAppliesWhenReplacementArrives) {
  // A watch-mode client whose only endpoint goes down must keep it (no
  // empty pool) but evict it as soon as a replacement publishes —
  // otherwise least-outstanding keeps preferring the dead endpoint.
  core::Session session({.seed = 17});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription svc;
  svc.name = "grp";
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "noop"}});
  svc.gpus = 1;

  const std::string first = session.services().submit(pilot, svc);
  std::string task_uid;
  session.services().when_ready({first}, [&](bool ok) {
    ASSERT_TRUE(ok);
    core::TaskDescription task;
    task.kind = "inference_client";
    task.payload = json::Value::object(
        {{"endpoints", json::Value::array(
                           {session.services().get(first).endpoint()})},
         {"requests", 24},
         {"concurrency", 1},
         {"think_time", 0.25},
         {"series", "watching"},
         {"balancer", "least_outstanding"},
         {"watch", "grp"},
         {"max_retries", 8},
         {"retry_backoff", 0.1}});
    task_uid = session.tasks().submit(pilot, task);
    // Mid-run: the only replica drains away, then a replacement
    // appears. The down event hits the last-endpoint guard and must be
    // applied when the replacement's up event arrives.
    session.loop().call_after(1.0, [&] { session.services().stop(first); });
    session.loop().call_after(2.0, [&] {
      const std::string second = session.services().submit(pilot, svc);
      session.services().when_ready({second}, [](bool) {});
    });
    session.tasks().when_done(
        {task_uid}, [&](bool) { session.services().stop_all(); });
  });
  session.run();

  const core::Task& task = session.tasks().get(task_uid);
  ASSERT_EQ(task.state(), core::TaskState::done);
  // All requests landed despite the swap, the replacement was added,
  // and the dead endpoint was evicted (deferred removal applied).
  EXPECT_EQ(task.result().get_or("ok", json::Value(0)).as_int(), 24);
  EXPECT_EQ(task.result()
                .get_or("endpoints_added", json::Value(0))
                .as_int(),
            1);
  EXPECT_EQ(task.result()
                .get_or("endpoints_removed", json::Value(0))
                .as_int(),
            1);
}

TEST(Autoscaler, ScalesUpUnderLoadAndDrainsOnStop) {
  const ServingTrace trace = run_serving(33);
  EXPECT_GT(trace.scale_ups, 0u);
  EXPECT_GT(trace.served.size(), 1u);  // more than the initial replica
  // Replicas beyond the first actually took traffic.
  std::size_t replicas_with_traffic = 0;
  for (const std::uint64_t served : trace.served) {
    if (served > 0) ++replicas_with_traffic;
  }
  EXPECT_GT(replicas_with_traffic, 1u);
}

TEST(Autoscaler, PrunesTerminalUidsAcrossRepeatedRepairs) {
  core::Session session({.seed = 29});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  core::ServiceDescription replica;
  replica.name = "crashy";
  replica.program = "inference";
  replica.config = json::Value::object({{"model", "noop"}});
  replica.gpus = 1;
  replica.monitor = true;  // liveness detection is what declares death
  replica.heartbeat_interval = 0.5;
  replica.heartbeat_misses = 2;

  AutoscalerConfig scaling;
  scaling.min_replicas = 1;
  scaling.max_replicas = 2;
  scaling.poll_interval = 0.25;
  scaling.cooldown = 0.5;
  Autoscaler scaler(session, pilot, replica, scaling);
  scaler.start();

  // A crash loop: whenever a replica is RUNNING, kill it. Every repair
  // submits fresh uids; without pruning the uid list accumulates every
  // uid ever submitted and each poll tick rescans the whole history.
  std::function<void()> crash_loop = [&] {
    for (const auto& uid : scaler.replicas()) {
      if (session.services().exists(uid) &&
          session.services().get(uid).state() ==
              core::ServiceState::running) {
        session.services().kill(uid);
      }
    }
    if (session.now() < 60.0) session.loop().call_after(1.0, crash_loop);
  };
  session.loop().call_after(1.0, crash_loop);
  session.run_until(70.0);

  EXPECT_GT(scaler.repairs(), 3u);
  // The regression: the uid list stays bounded by the pool size no
  // matter how many times the pool was rebuilt.
  EXPECT_LE(scaler.replicas().size(), scaling.max_replicas);
  scaler.stop();
  session.run();
}

TEST_F(BatchServerFixture, ExpiredWindowDispatchesOnFirstFreeWorker) {
  // A request that waits out its batch window while the only worker is
  // busy must dispatch the moment the worker frees — re-windowing it
  // (the old behaviour) doubles its queueing delay.
  make_server(second_model(),
              ServerConfig{.max_concurrency = 1,
                           .max_queue = 0,
                           .max_batch = 2,
                           .batch_window = 0.5});
  // Two requests form a full batch: dispatched immediately, the worker
  // is busy until ~1 s.
  for (int i = 0; i < 2; ++i) {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [](msg::CallResult) {});
  }
  // The straggler arrives at 0.1 s; its 0.5 s window runs out at 0.6 s,
  // long before the worker frees.
  double straggler_done = -1.0;
  loop.call_at(0.1, [&] {
    rpc_client->call("svc", "infer", json::Value::object(),
                     [&](msg::CallResult r) {
                       ASSERT_TRUE(r.ok);
                       straggler_done = loop.now();
                     });
  });
  loop.run();
  EXPECT_EQ(server->batch_trace(), (std::vector<std::uint32_t>{2, 1}));
  // Fixed: dispatch at ~1 s, reply at ~2 s. Re-windowed: ~2.5 s.
  EXPECT_GT(straggler_done, 0.0);
  EXPECT_LT(straggler_done, 2.3);
}

}  // namespace
