// Tests for the ServiceManager: bootstrap pipeline, readiness barriers,
// timeouts, liveness/heartbeats, kill/restart, draining and remote
// registration.

#include <gtest/gtest.h>

#include "ripple/common/error.hpp"
#include "ripple/core/session.hpp"
#include "ripple/msg/rpc.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/profiles.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

ServiceDescription svc_desc(const std::string& model = "noop") {
  ServiceDescription desc;
  desc.name = "svc";
  desc.program = "inference";
  desc.config = json::Value::object({{"model", model}});
  desc.gpus = 1;
  return desc;
}

class ServiceManagerTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 42}};
  Pilot* pilot = nullptr;

  void SetUp() override {
    ml::install(session);
    session.add_platform(platform::delta_profile(4));
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 4});
  }
};

TEST_F(ServiceManagerTest, BootstrapWalksAllStates) {
  const auto uid = session.services().submit(*pilot, svc_desc());
  session.services().when_ready(
      {uid}, [&](bool ok) {
        EXPECT_TRUE(ok);
        session.services().stop_all();
      });
  session.run();

  const auto& svc = session.services().get(uid);
  EXPECT_EQ(svc.state(), ServiceState::stopped);
  // Every bootstrap state was visited, in order.
  double last = -1;
  for (const auto state :
       {ServiceState::scheduling, ServiceState::scheduled,
        ServiceState::launching, ServiceState::initializing,
        ServiceState::publishing, ServiceState::running,
        ServiceState::stopped}) {
    const double t = svc.state_time(state);
    EXPECT_GE(t, last) << to_string(state);
    last = t;
  }
  EXPECT_TRUE(svc.bootstrap().complete());
  EXPECT_EQ(svc.endpoint(), uid);
}

TEST_F(ServiceManagerTest, TimelineReceivesTransitions) {
  const auto uid = session.services().submit(*pilot, svc_desc());
  session.services().when_ready(
      {uid}, [&](bool) { session.services().stop_all(); });
  session.run();
  auto& timeline = session.timeline();
  EXPECT_GE(timeline.records().size(), 7u);
  EXPECT_GE(timeline.state_time(uid, "RUNNING"), 0.0);
  EXPECT_DOUBLE_EQ(
      timeline.duration(uid, "LAUNCHING", "RUNNING"),
      session.services().get(uid).bootstrap().total());
}

TEST_F(ServiceManagerTest, WhenReadyFiresImmediatelyIfAlreadyRunning) {
  const auto uid = session.services().submit(*pilot, svc_desc());
  bool first = false;
  session.services().when_ready({uid}, [&](bool ok) { first = ok; });
  session.run();
  EXPECT_TRUE(first);
  // Second watcher on an already-running service fires right away.
  bool second = false;
  session.services().when_ready({uid}, [&](bool ok) { second = ok; });
  session.run();
  EXPECT_TRUE(second);
  session.services().stop_all();
  session.run();
}

TEST_F(ServiceManagerTest, ReadyTimeoutFailsService) {
  auto desc = svc_desc("llama-8b");  // ~35 s init
  desc.ready_timeout = 5.0;          // far too short
  const auto uid = session.services().submit(*pilot, desc);
  bool ready_result = true;
  session.services().when_ready({uid},
                                [&](bool ok) { ready_result = ok; });
  session.run();
  EXPECT_FALSE(ready_result);
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::failed);
  EXPECT_NE(session.services().get(uid).error().find("ready timeout"),
            std::string::npos);
}

TEST_F(ServiceManagerTest, UnknownProgramAndModelFail) {
  auto bad_program = svc_desc();
  bad_program.program = "warp-drive";
  EXPECT_THROW((void)session.services().submit(*pilot, bad_program), Error);

  auto bad_model = svc_desc("gpt-17");
  const auto uid = session.services().submit(*pilot, bad_model);
  bool ok = true;
  session.services().when_ready({uid}, [&](bool r) { ok = r; });
  session.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::failed);
}

TEST_F(ServiceManagerTest, EndpointsFilterByNameAndState) {
  auto named = svc_desc();
  named.name = "alpha";
  const auto a = session.services().submit(*pilot, named);
  named.name = "beta";
  const auto b = session.services().submit(*pilot, named);
  session.services().when_ready({a, b}, [&](bool) {});
  session.run();
  EXPECT_EQ(session.services().endpoints().size(), 2u);
  EXPECT_EQ(session.services().endpoints("alpha").size(), 1u);
  EXPECT_EQ(session.services().running("beta"), std::vector<std::string>{b});
  session.services().stop(a);
  session.run();
  EXPECT_EQ(session.services().endpoints().size(), 1u);
  session.services().stop_all();
  session.run();
}

TEST_F(ServiceManagerTest, StopDuringBootstrapCancels) {
  auto slow = svc_desc("llama-8b");
  const auto uid = session.services().submit(*pilot, slow);
  session.run_until(10.0);  // mid-init
  EXPECT_EQ(session.services().get(uid).state(),
            ServiceState::initializing);
  bool stopped = false;
  session.services().stop(uid, [&] { stopped = true; });
  session.run();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::canceled);
  // Slot returned: all GPUs free again.
  EXPECT_EQ(pilot->cluster().node(0).free_gpus(), 4u);
}

TEST_F(ServiceManagerTest, DrainWaitsForOutstandingRequests) {
  const auto uid = session.services().submit(*pilot, svc_desc("llama-8b"));
  bool request_done = false;
  bool drain_done = false;
  double drained_at = -1;
  std::unique_ptr<msg::RpcClient> rpc;
  session.services().when_ready({uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    // Fire a slow inference directly at the service, then stop it while
    // the request is still being generated (several seconds of llama).
    rpc = std::make_unique<msg::RpcClient>(
        session.runtime().router(), "probe", pilot->cluster().head_host());
    rpc->call(session.services().get(uid).endpoint(), "infer",
              json::Value::object(),
              [&](msg::CallResult r) { request_done = r.ok; });
    session.loop().call_after(0.5, [&, uid] {
      ASSERT_GT(session.services().program(uid)->outstanding(), 0u);
      session.services().stop(uid, [&] {
        drain_done = true;
        drained_at = session.now();
      });
    });
  });
  session.run();
  EXPECT_TRUE(request_done);  // the in-flight request completed
  EXPECT_TRUE(drain_done);
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::stopped);
  // Draining had to outlast the multi-second llama inference.
  const double running_at =
      session.services().get(uid).state_time(ServiceState::running);
  EXPECT_GT(drained_at - running_at, 1.0);
}

TEST_F(ServiceManagerTest, KillDetectedByLivenessAndRestarted) {
  auto desc = svc_desc();
  desc.monitor = true;
  desc.heartbeat_interval = 5.0;
  desc.heartbeat_misses = 2;
  desc.restart_on_failure = true;
  desc.max_restarts = 1;
  const auto uid = session.services().submit(*pilot, desc);

  int ready_count = 0;
  session.services().when_ready({uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    ++ready_count;
    // Crash it silently shortly after it came up. The liveness window
    // is heartbeat_interval * misses = 10 s; re-watch after the manager
    // has detected the crash and begun the restart.
    session.loop().call_after(3.0, [&, uid] {
      session.services().kill(uid);
      session.loop().call_after(12.0, [&, uid] {
        EXPECT_FALSE(is_terminal(session.services().get(uid).state()))
            << "restart should be in flight";
        session.services().when_ready({uid}, [&](bool ok2) {
          EXPECT_TRUE(ok2);
          ++ready_count;
          session.services().stop_all();
        });
      });
    });
  });
  session.run();
  EXPECT_EQ(ready_count, 2);
  EXPECT_EQ(session.services().get(uid).restarts(), 1);
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::stopped);
}

TEST_F(ServiceManagerTest, KillWithoutRestartStaysFailed) {
  auto desc = svc_desc();
  desc.monitor = true;
  desc.heartbeat_interval = 2.0;
  desc.heartbeat_misses = 2;
  const auto uid = session.services().submit(*pilot, desc);
  session.services().when_ready({uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    session.services().kill(uid);
  });
  session.run();
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::failed);
  EXPECT_NE(session.services().get(uid).error().find("liveness"),
            std::string::npos);
  // GPU slot released on failure.
  std::size_t free_gpus = 0;
  for (std::size_t n = 0; n < 4; ++n) {
    free_gpus += pilot->cluster().node(n).free_gpus();
  }
  EXPECT_EQ(free_gpus, 16u);
}

TEST_F(ServiceManagerTest, HeartbeatsKeepHealthyServiceAlive) {
  auto desc = svc_desc();
  desc.monitor = true;
  desc.heartbeat_interval = 1.0;
  desc.heartbeat_misses = 2;
  const auto uid = session.services().submit(*pilot, desc);
  session.services().when_ready({uid}, [&](bool ok) {
    ASSERT_TRUE(ok);
    // Let many heartbeat periods elapse, then stop cleanly.
    session.loop().call_after(20.0,
                              [&] { session.services().stop_all(); });
  });
  session.run();
  EXPECT_EQ(session.services().get(uid).state(), ServiceState::stopped);
  EXPECT_GT(session.services().get(uid).last_heartbeat(), 15.0);
}

TEST_F(ServiceManagerTest, RemoteServiceSkipsBootstrap) {
  auto& r3 = session.add_platform(platform::r3_profile(2));
  auto desc = svc_desc();
  desc.config.set("preloaded", true);
  const auto uid = session.services().register_remote(r3, desc, 1);
  session.services().when_ready({uid}, [&](bool ok) { EXPECT_TRUE(ok); });
  session.run();
  const auto& svc = session.services().get(uid);
  EXPECT_TRUE(svc.remote());
  EXPECT_EQ(svc.state(), ServiceState::running);
  EXPECT_FALSE(svc.bootstrap().complete());  // no BT for remote (paper)
  EXPECT_EQ(session.metrics().bootstraps().size(), 0u);
  EXPECT_DOUBLE_EQ(svc.state_time(ServiceState::running), 0.0);
  session.services().stop_all();
  session.run();
}

TEST_F(ServiceManagerTest, RemoteServiceStoppedBeforeInitIsCanceled) {
  // Two remote services still loading their model: neither has a
  // scheduler request, so stop and stop_all cancel them outright, and
  // the loads that complete later are dropped.
  auto& r3 = session.add_platform(platform::r3_profile(2));
  const auto first = session.services().register_remote(r3, svc_desc(), 0);
  const auto second = session.services().register_remote(r3, svc_desc(), 1);
  int stopped = 0;
  ASSERT_NO_THROW(session.services().stop(first, [&] { ++stopped; }));
  ASSERT_NO_THROW(session.services().stop_all([&] { ++stopped; }));
  ASSERT_NO_THROW(session.run());
  EXPECT_EQ(stopped, 2);
  for (const auto& uid : {first, second}) {
    EXPECT_EQ(session.services().get(uid).state(), ServiceState::canceled)
        << uid;
    EXPECT_EQ(session.services().program(uid), nullptr) << uid;
  }
  EXPECT_TRUE(session.services().endpoints().empty());
}

TEST_F(ServiceManagerTest, RestartDropsTheRequestOfTheFailedAttempt) {
  // Every GPU is held, so the service's request queues until its ready
  // timeout fails it at 5 s. The restart queues a fresh request and
  // drops the old one, so the GPUs freed at 5.5 s go to the restart
  // alone, and it boots.
  auto& sched = session.scheduler();
  std::vector<platform::Slot> hogs;
  for (int i = 0; i < 4; ++i) {
    ScheduleRequest hog;
    hog.uid = "hog" + std::to_string(i);
    hog.gpus = 4;
    hog.granted = [&hogs](platform::Slot slot, platform::Node*) {
      hogs.push_back(std::move(slot));
    };
    sched.submit(pilot->uid(), std::move(hog));
  }
  auto desc = svc_desc();
  desc.ready_timeout = 5.0;
  desc.restart_on_failure = true;
  const auto uid = session.services().submit(*pilot, desc);
  session.loop().call_at(5.5, [&] { sched.release(pilot->uid(), hogs[0]); });
  ASSERT_NO_THROW(session.run());
  const auto& svc = session.services().get(uid);
  EXPECT_EQ(svc.state(), ServiceState::running);
  EXPECT_EQ(svc.restarts(), 1);
  EXPECT_EQ(sched.granted_total(), 5u);
  EXPECT_EQ(sched.waiting_total(), 0u);
  session.services().stop_all();
  session.run();
}

TEST_F(ServiceManagerTest, StatsExposeProgramCounters) {
  const auto uid = session.services().submit(*pilot, svc_desc());
  session.services().when_ready({uid}, [&](bool) {});
  session.run();
  const auto stats = session.services().stats(uid);
  EXPECT_EQ(stats.at("state").as_string(), "RUNNING");
  EXPECT_TRUE(stats.contains("bootstrap"));
  EXPECT_EQ(stats.at("program").at("model").as_string(), "noop");
  session.services().stop_all();
  session.run();
}

TEST_F(ServiceManagerTest, BootstrapCohortRecorded) {
  std::vector<std::string> uids;
  for (int i = 0; i < 6; ++i) {
    uids.push_back(session.services().submit(*pilot, svc_desc()));
  }
  session.services().when_ready(uids,
                                [&](bool) { session.services().stop_all(); });
  session.run();
  ASSERT_EQ(session.metrics().bootstraps().size(), 6u);
  for (const auto& record : session.metrics().bootstraps()) {
    EXPECT_GE(record.cohort, 1u);
    EXPECT_LE(record.cohort, 6u);
  }
}

}  // namespace
