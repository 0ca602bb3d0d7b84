// Cross-module integration: workflows over services with staging,
// remote endpoints, failover under fault injection, and end-to-end
// metric consistency — the full stack behaving like the paper's
// execution model.

#include <gtest/gtest.h>

#include "ripple/core/session.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

TEST(IntegrationWf, PipelineWithStagedDataAndServiceStage) {
  Session session({.seed = 314});
  ml::install(session);
  session.add_platform(platform::delta_profile(4));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  wf::WorkflowManager workflows(session);

  // Remote archive holding the input data.
  session.runtime().network().register_host("archive:store", "archive");
  session.data().register_dataset("raw", 20e9, "archive");
  session.data().set_bandwidth("archive", "delta", 2e9);

  wf::Pipeline pipeline;
  pipeline.name = "staged";
  wf::Stage prep;
  prep.name = "prep";
  for (int i = 0; i < 4; ++i) {
    TaskDescription t;
    t.kind = "modeled";
    t.cores = 2;
    t.duration = common::Distribution::constant(30.0);
    t.staging.push_back(StagingDirective::in("raw"));
    t.staging.push_back(
        StagingDirective::out("features-" + std::to_string(i)));
    prep.tasks.push_back(t);
  }
  wf::Stage serve;
  serve.name = "serve";
  ServiceDescription svc;
  svc.program = "inference";
  svc.config = json::Value::object({{"model", "noop"}});
  svc.gpus = 1;
  serve.services = {svc};
  TaskDescription consumer;
  consumer.kind = "modeled";
  consumer.duration = common::Distribution::constant(5.0);
  serve.tasks = {consumer};
  serve.stop_services_after = true;
  pipeline.stages = {prep, serve};

  wf::PipelineResult result;
  workflows.run_pipeline(pipeline, pilot,
                         [&](const wf::PipelineResult& r) { result = r; });
  session.run();

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.tasks_done, 5u);
  // The 20 GB dataset was transferred once (four tasks piggybacked).
  EXPECT_EQ(session.data().transfers(), 1u);
  EXPECT_TRUE(session.data().available_in("raw", "delta"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(session.data().available_in(
        "features-" + std::to_string(i), "delta"));
  }
  // Stage durations are part of the result.
  ASSERT_EQ(result.stage_names, (std::vector<std::string>{"prep", "serve"}));
  // Prep stage duration includes the ~10 s transfer.
  EXPECT_GT(result.stage_durations[0], 40.0);
  EXPECT_GE(result.makespan, result.stage_durations[0]);
}

TEST(IntegrationWf, MixedLocalRemoteFleetSurvivesKill) {
  Session session({.seed = 2718});
  ml::install(session);
  session.add_platform(platform::delta_profile(4));
  auto& r3 = session.add_platform(platform::r3_profile(2));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});

  // One monitored local + one persistent remote service.
  ServiceDescription local;
  local.program = "inference";
  local.config = json::Value::object({{"model", "noop"}});
  local.gpus = 1;
  local.monitor = true;
  local.heartbeat_interval = 2.0;
  local.heartbeat_misses = 2;
  const auto local_uid = session.services().submit(pilot, local);

  ServiceDescription remote = local;
  remote.monitor = false;
  remote.config.set("preloaded", true);
  const auto remote_uid =
      session.services().register_remote(r3, remote, 0);

  std::size_t client_ok = 0;
  std::size_t client_failed = 0;
  session.services().when_ready({local_uid, remote_uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    json::Value endpoints = json::Value::array(
        {json::Value(session.services().get(local_uid).endpoint()),
         json::Value(session.services().get(remote_uid).endpoint())});
    TaskDescription client;
    client.kind = "inference_client";
    client.payload = json::Value::object({{"endpoints", endpoints},
                                          {"requests", 200},
                                          {"concurrency", 1},
                                          {"timeout", 5.0},
                                          {"think_time", 0.5},
                                          {"series", "failover"}});
    const auto task = session.tasks().submit(pilot, client);
    session.tasks().when_done({task}, [&, task](bool) {
      const auto& result = session.tasks().get(task).result();
      client_ok = static_cast<std::size_t>(result.at("ok").as_int());
      client_failed =
          static_cast<std::size_t>(result.at("failed").as_int());
      session.services().stop_all();
    });
    // Kill the local service mid-run.
    session.loop().call_after(20.0,
                              [&] { session.services().kill(local_uid); });
  });
  session.run();

  // The local service was declared dead by liveness monitoring...
  EXPECT_EQ(session.services().get(local_uid).state(),
            ServiceState::failed);
  // ...some requests to it failed/timed out, but the client finished
  // and the remote endpoint carried the rest.
  EXPECT_GT(client_failed, 0u);
  EXPECT_GT(client_ok, 100u);
  EXPECT_EQ(client_ok + client_failed, 200u);
  EXPECT_EQ(session.metrics().series("failover").count(), client_ok);
}

TEST(IntegrationWf, MultiPlatformSessionSummaryConsistent) {
  Session session({.seed = 1});
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  session.add_platform(platform::r3_profile(1));
  session.add_platform(platform::frontier_profile(2));
  auto& pilot_d = session.submit_pilot({.platform = "delta", .nodes = 1});
  auto& pilot_f = session.submit_pilot({.platform = "frontier", .nodes = 1});

  TaskDescription t;
  t.kind = "modeled";
  t.duration = common::Distribution::constant(1.0);
  session.tasks().submit(pilot_d, t);
  session.tasks().submit(pilot_f, t);
  session.run();

  EXPECT_EQ(session.pilot_uids().size(), 2u);
  const auto summary = session.summary();
  EXPECT_EQ(summary.at("tasks").at("DONE").as_int(), 2);
  EXPECT_GT(summary.at("events").as_int(), 0);
  EXPECT_TRUE(session.has_cluster("r3"));
  EXPECT_FALSE(session.has_cluster("summit"));
}

TEST(IntegrationWf, ThroughputScalesWithServices) {
  // End-to-end sanity on aggregate throughput: 4x the services should
  // cut the makespan of a fixed request volume by roughly 4x when the
  // service is the bottleneck.
  auto run_with = [](std::size_t services) {
    Session session({.seed = 11});
    ml::install(session);
    session.add_platform(platform::delta_profile(4));
    auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
    std::vector<std::string> uids;
    for (std::size_t i = 0; i < services; ++i) {
      ServiceDescription desc;
      desc.program = "inference";
      desc.config = json::Value::object({{"model", "llama-8b"}});
      desc.gpus = 1;
      uids.push_back(session.services().submit(pilot, desc));
    }
    double start = 0;
    double finish = 0;
    session.services().when_ready(uids, [&](bool ok) {
      ASSERT_TRUE(ok);
      start = session.now();
      json::Value endpoints = json::Value::array();
      for (const auto& uid : uids) {
        endpoints.push_back(session.services().get(uid).endpoint());
      }
      std::vector<std::string> tasks;
      for (int c = 0; c < 4; ++c) {
        TaskDescription client;
        client.kind = "inference_client";
        client.payload = json::Value::object(
            {{"endpoints", endpoints},
             {"requests", 16},
             {"concurrency", 4},
             {"balancer", "least_outstanding"},
             {"series", "tp"}});
        tasks.push_back(session.tasks().submit(pilot, client));
      }
      session.tasks().when_done(tasks, [&](bool) {
        finish = session.now();
        session.services().stop_all();
      });
    });
    session.run();
    return finish - start;
  };
  const double t1 = run_with(1);
  const double t4 = run_with(4);
  EXPECT_GT(t1 / t4, 2.5);
  EXPECT_LT(t1 / t4, 6.0);
}

}  // namespace
