// Unit tests for the messaging layer: envelope/timing, router, RPC,
// pub/sub.

#include <gtest/gtest.h>

#include "ripple/common/error.hpp"
#include "ripple/msg/message.hpp"
#include "ripple/msg/pubsub.hpp"
#include "ripple/msg/router.hpp"
#include "ripple/msg/rpc.hpp"

namespace {

using namespace ripple;

TEST(Message, RequestFactorySetsFields) {
  const auto m = msg::Message::request("infer", "client.0", "svc.0",
                                       json::Value::object({{"x", 1}}));
  EXPECT_EQ(m.kind, msg::MessageKind::request);
  EXPECT_EQ(m.method, "infer");
  EXPECT_EQ(m.sender, "client.0");
  EXPECT_EQ(m.target, "svc.0");
  EXPECT_FALSE(m.uid.empty());
  EXPECT_GT(m.wire_size(), 96u);
}

TEST(Message, ReplySwapsAddressesAndCorrelates) {
  const auto request = msg::Message::request("m", "a", "b", json::Value());
  const auto reply = msg::Message::reply_to(request, json::Value(1));
  EXPECT_EQ(reply.kind, msg::MessageKind::reply);
  EXPECT_EQ(reply.sender, "b");
  EXPECT_EQ(reply.target, "a");
  EXPECT_EQ(reply.corr_id, request.uid);
  EXPECT_TRUE(reply.ok);

  const auto failure = msg::Message::fail_reply_to(request, "broken");
  EXPECT_FALSE(failure.ok);
  EXPECT_EQ(failure.error, "broken");
}

TEST(RequestTiming, DecomposesStamps) {
  msg::Timestamps ts;
  ts.sent = 1.0;
  ts.received = 1.2;          // 0.2 out
  ts.compute_start = 1.5;     // 0.3 queue+parse
  ts.compute_end = 3.5;       // 2.0 inference
  ts.reply_sent = 3.6;        // 0.1 serialize
  ts.reply_received = 3.9;    // 0.3 back
  const auto timing = msg::RequestTiming::from(ts);
  EXPECT_NEAR(timing.communication, 0.5, 1e-12);
  EXPECT_NEAR(timing.service, 0.4, 1e-12);
  EXPECT_NEAR(timing.inference, 2.0, 1e-12);
  EXPECT_NEAR(timing.total, 2.9, 1e-12);
  EXPECT_NEAR(timing.total,
              timing.communication + timing.service + timing.inference,
              1e-12);
}

TEST(RequestTiming, MissingStampThrows) {
  msg::Timestamps ts;
  ts.sent = 1.0;
  EXPECT_THROW((void)msg::RequestTiming::from(ts), Error);
}

TEST(Timestamps, JsonRoundTrip) {
  msg::Timestamps ts;
  ts.sent = 0.5;
  ts.reply_received = 2.25;
  const auto restored = msg::Timestamps::from_json(ts.to_json());
  EXPECT_DOUBLE_EQ(restored.sent, 0.5);
  EXPECT_DOUBLE_EQ(restored.reply_received, 2.25);
  EXPECT_DOUBLE_EQ(restored.compute_start, -1.0);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  common::Rng rng{3};
  sim::Network net{loop, rng};
  msg::Router router{loop, net};

  void SetUp() override {
    net.register_host("h0", "z");
    net.register_host("h1", "z");
    net.set_link("z", "z",
                 sim::LinkModel{common::Distribution::constant(1e-3), 0});
  }
};

TEST_F(RouterTest, DeliversWithLinkLatencyAndStamps) {
  msg::Message received;
  router.bind("dest", "h1", [&](msg::Message m) { received = std::move(m); });
  auto m = msg::Message::request("ping", "src", "dest", json::Value());
  EXPECT_TRUE(router.send("h0", std::move(m)));
  loop.run();
  EXPECT_EQ(received.method, "ping");
  EXPECT_DOUBLE_EQ(received.ts.sent, 0.0);
  EXPECT_DOUBLE_EQ(received.ts.received, 1e-3);
  EXPECT_EQ(router.sent(), 1u);
}

TEST_F(RouterTest, UnknownTargetDropsAndReturnsFalse) {
  auto m = msg::Message::request("x", "src", "nowhere", json::Value());
  EXPECT_FALSE(router.send("h0", std::move(m)));
  EXPECT_EQ(router.dropped(), 1u);
}

TEST_F(RouterTest, UnbindWhileInFlightDropsAtArrival) {
  int handled = 0;
  router.bind("dest", "h1", [&](msg::Message) { ++handled; });
  router.send("h0",
              msg::Message::request("x", "src", "dest", json::Value()));
  router.unbind("dest");
  loop.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(router.dropped(), 1u);
}

TEST_F(RouterTest, RebindReplacesHandler) {
  int first = 0;
  int second = 0;
  router.bind("dest", "h1", [&](msg::Message) { ++first; });
  router.bind("dest", "h1", [&](msg::Message) { ++second; });
  router.send("h0", msg::Message::request("x", "s", "dest", json::Value()));
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(router.host_of("dest"), "h1");
  EXPECT_THROW((void)router.host_of("gone"), Error);
}

TEST_F(RouterTest, BindValidation) {
  EXPECT_THROW(router.bind("", "h0", [](msg::Message) {}), Error);
  EXPECT_THROW(router.bind("a", "unknown-host", [](msg::Message) {}),
               Error);
  EXPECT_THROW(router.bind("a", "h0", nullptr), Error);
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

class RpcTest : public RouterTest {
 protected:
  std::unique_ptr<msg::RpcServer> server;
  std::unique_ptr<msg::RpcClient> client;

  void SetUp() override {
    RouterTest::SetUp();
    server = std::make_unique<msg::RpcServer>(router, "svc", "h0");
    client = std::make_unique<msg::RpcClient>(router, "cli", "h1");
  }
};

TEST_F(RpcTest, EchoRoundTripWithTiming) {
  server->bind_method("echo", [](std::shared_ptr<msg::Responder> r) {
    r->reply(r->request().payload);
  });
  msg::CallResult result;
  client->call("svc", "echo", json::Value::object({{"v", 7}}),
               [&](msg::CallResult r) { result = std::move(r); });
  loop.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.payload.at("v").as_int(), 7);
  const auto timing = result.timing();
  EXPECT_NEAR(timing.communication, 2e-3, 1e-9);  // two 1 ms hops
  EXPECT_NEAR(timing.total,
              timing.communication + timing.service + timing.inference,
              1e-12);
}

TEST_F(RpcTest, AsyncHandlerWithComputeStamps) {
  server->bind_method("slow", [this](std::shared_ptr<msg::Responder> r) {
    loop.call_after(0.5, [r] {
      r->begin_compute();
      // inference takes 2 s
      r->end_compute();
      r->reply(json::Value::object());
    });
    // note: begin/end_compute at same instant -> inference 0; use timers
  });
  // A more realistic async pattern:
  server->bind_method("compute", [this](std::shared_ptr<msg::Responder> r) {
    loop.call_after(0.1, [this, r] {
      r->begin_compute();
      loop.call_after(2.0, [r] {
        r->end_compute();
        r->reply(json::Value::object());
      });
    });
  });
  msg::CallResult result;
  client->call("svc", "compute", json::Value::object(),
               [&](msg::CallResult r) { result = std::move(r); });
  loop.run();
  ASSERT_TRUE(result.ok);
  const auto timing = result.timing();
  EXPECT_NEAR(timing.inference, 2.0, 1e-9);
  EXPECT_NEAR(timing.service, 0.1, 1e-9);  // queue before compute
}

TEST_F(RpcTest, UnknownMethodFailsGracefully) {
  msg::CallResult result;
  client->call("svc", "nope", json::Value::object(),
               [&](msg::CallResult r) { result = std::move(r); });
  loop.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown method"), std::string::npos);
}

TEST_F(RpcTest, UnreachableTargetFails) {
  msg::CallResult result;
  client->call("ghost", "echo", json::Value::object(),
               [&](msg::CallResult r) { result = std::move(r); });
  loop.run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "target unreachable");
}

TEST_F(RpcTest, TimeoutFiresOnceAndLateReplyIsDropped) {
  server->bind_method("late", [this](std::shared_ptr<msg::Responder> r) {
    loop.call_after(5.0, [r] { r->reply(json::Value::object()); });
  });
  int callbacks = 0;
  msg::CallResult result;
  client->call(
      "svc", "late", json::Value::object(),
      [&](msg::CallResult r) {
        ++callbacks;
        result = std::move(r);
      },
      /*timeout=*/1.0);
  loop.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "timeout");
  EXPECT_EQ(client->timed_out(), 1u);
  EXPECT_EQ(client->late_replies(), 1u);
}

TEST_F(RpcTest, ResponderRepliesExactlyOnce) {
  server->bind_method("dup", [](std::shared_ptr<msg::Responder> r) {
    r->reply(json::Value::object());
    EXPECT_THROW(r->reply(json::Value::object()), Error);
    EXPECT_THROW(r->fail("x"), Error);
  });
  int callbacks = 0;
  client->call("svc", "dup", json::Value::object(),
               [&](msg::CallResult) { ++callbacks; });
  loop.run();
  EXPECT_EQ(callbacks, 1);
}

TEST_F(RpcTest, ManyOutstandingCallsCorrelateCorrectly) {
  server->bind_method("id", [](std::shared_ptr<msg::Responder> r) {
    r->reply(r->request().payload);
  });
  std::vector<int> answers(64, -1);
  for (int i = 0; i < 64; ++i) {
    client->call("svc", "id", json::Value::object({{"i", i}}),
                 [&, i](msg::CallResult r) {
                   ASSERT_TRUE(r.ok);
                   answers[i] = static_cast<int>(r.payload.at("i").as_int());
                 });
  }
  EXPECT_EQ(client->outstanding(), 64u);
  loop.run();
  EXPECT_EQ(client->outstanding(), 0u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(answers[i], i);
}

// ---------------------------------------------------------------------------
// PubSub
// ---------------------------------------------------------------------------

TEST(PubSub, TopicAndWildcardDelivery) {
  sim::EventLoop loop;
  msg::PubSub bus(loop);
  int topic_events = 0;
  int all_events = 0;
  bus.subscribe("state", [&](const std::string& topic, const json::Value&) {
    EXPECT_EQ(topic, "state");
    ++topic_events;
  });
  bus.subscribe_all(
      [&](const std::string&, const json::Value&) { ++all_events; });
  bus.publish("state", json::Value::object());
  bus.publish("other", json::Value::object());
  loop.run();
  EXPECT_EQ(topic_events, 1);
  EXPECT_EQ(all_events, 2);
  EXPECT_EQ(bus.published(), 2u);
}

TEST(PubSub, HasSubscribersSeesTopicAndWildcard) {
  sim::EventLoop loop;
  msg::PubSub bus(loop);
  const auto ignore = [](const std::string&, const json::Value&) {};
  EXPECT_FALSE(bus.has_subscribers("state"));
  const auto id = bus.subscribe("state", ignore);
  EXPECT_TRUE(bus.has_subscribers("state"));
  EXPECT_FALSE(bus.has_subscribers("other"));
  bus.unsubscribe(id);
  EXPECT_FALSE(bus.has_subscribers("state"));
  bus.subscribe_all(ignore);
  EXPECT_TRUE(bus.has_subscribers("other"));
}

TEST(PubSub, UnsubscribeStopsDelivery) {
  sim::EventLoop loop;
  msg::PubSub bus(loop);
  int events = 0;
  const auto id = bus.subscribe(
      "t", [&](const std::string&, const json::Value&) { ++events; });
  bus.publish("t", json::Value::object());
  loop.run();
  bus.unsubscribe(id);
  bus.publish("t", json::Value::object());
  loop.run();
  EXPECT_EQ(events, 1);
}

TEST(PubSub, PublishFromSubscriberDoesNotRecurse) {
  sim::EventLoop loop;
  msg::PubSub bus(loop);
  int depth = 0;
  int events = 0;
  bus.subscribe("t", [&](const std::string&, const json::Value&) {
    ++events;
    ASSERT_LT(events, 4);
    ++depth;
    EXPECT_EQ(depth, 1);  // no re-entrant delivery
    if (events == 1) bus.publish("t", json::Value::object());
    --depth;
  });
  bus.publish("t", json::Value::object());
  loop.run();
  EXPECT_EQ(events, 2);
}

}  // namespace
