// Unit tests for the messaging layer: envelope/timing, router, RPC,
// pub/sub.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/msg/message.hpp"
#include "ripple/msg/pubsub.hpp"
#include "ripple/msg/router.hpp"
#include "ripple/msg/rpc.hpp"

namespace {

using namespace ripple;

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
  sim::HostIndex h0 = 0;
  sim::HostIndex h1 = 0;

  void SetUp() override {
    h0 = net.register_host("h0", "z");
    h1 = net.register_host("h1", "z");
    net.set_link("z", "z",
                 sim::LinkModel{common::Distribution::constant(1e-3), 0});
  }

  msg::Message request_to(msg::EndpointId target, std::string method = "x") {
    const msg::EndpointId src = router.endpoint("src");
    return router.request(src, target, std::move(method), json::Value());
  }
};

TEST_F(RouterTest, RequestFactorySetsFields) {
  const msg::EndpointId client = router.endpoint("client.0");
  const msg::EndpointId svc = router.endpoint("svc.0");
  const auto m = router.request(client, svc, "infer",
                                json::Value::object({{"x", 1}}));
  EXPECT_EQ(m.kind, msg::MessageKind::request);
  EXPECT_EQ(m.method, "infer");
  EXPECT_EQ(m.sender, client);
  EXPECT_EQ(m.target, svc);
  EXPECT_EQ(router.endpoint("svc.0"), svc);
  EXPECT_GT(router.wire_size(m), 96u);
}

TEST_F(RouterTest, ReplySwapsEndsAndCarriesTheRequestNumber) {
  const msg::EndpointId a = router.endpoint("a");
  const msg::EndpointId b = router.endpoint("b");
  const auto request = router.request(a, b, "m", json::Value());
  const auto reply = router.reply(request, json::Value(1));
  EXPECT_EQ(reply.kind, msg::MessageKind::reply);
  EXPECT_EQ(reply.sender, b);
  EXPECT_EQ(reply.target, a);
  EXPECT_EQ(reply.number, request.number);
  EXPECT_TRUE(reply.ok);

  const auto failure = router.fail_reply(request, "broken");
  EXPECT_FALSE(failure.ok);
  EXPECT_EQ(failure.error, "broken");
  EXPECT_EQ(failure.number, request.number);
}

TEST_F(RouterTest, EveryRequestAndReplyAdvancesTheNumbering) {
  const msg::EndpointId dest = router.endpoint("dest");
  const auto first = request_to(dest);
  (void)router.reply(first, json::Value());
  (void)router.fail_reply(first, "x");
  const auto next = request_to(dest);
  EXPECT_EQ(first.number, 0u);
  EXPECT_EQ(next.number, 3u);
}

TEST(MessageNumbers, ASecondRouterNumbersItsFirstMessageAsTheFirstDid) {
  // Each session's Router numbers its own messages: what an earlier
  // session in the same process sent moves neither the numbers nor the
  // wire sizes (and so the delays) of a later one.
  sim::EventLoop loop;
  sim::Network net{loop, common::Rng(3)};
  msg::Router first{loop, net};
  const msg::EndpointId a1 = first.endpoint("a");
  const auto one = first.request(a1, first.endpoint("b"), "m", json::Value());
  for (int i = 0; i < 3; ++i) (void)first.reply(one, json::Value());
  msg::Router second{loop, net};
  const msg::EndpointId a2 = second.endpoint("a");
  const auto two = second.request(a2, second.endpoint("b"), "m", {});
  EXPECT_EQ(two.number, one.number);
  EXPECT_EQ(second.wire_size(second.reply(two, json::Value())),
            first.wire_size(first.reply(one, json::Value())));
}

TEST_F(RouterTest, ReplyCorrelationIdWidensPastSixDigits) {
  // A reply counts its correlation id "msg." + the number padded to six
  // digits: 10 bytes below 1,000,000 and 11 from there on. A request
  // counts none.
  auto request = request_to(router.endpoint("dest"));
  const std::size_t request_size = router.wire_size(request);
  request.number = 999'999;
  const std::size_t below = router.wire_size(router.reply(request, {}));
  request.number = 1'000'000;
  const std::size_t above = router.wire_size(router.reply(request, {}));
  EXPECT_EQ(router.wire_size(request), request_size);
  EXPECT_EQ(below, request_size + 10);
  EXPECT_EQ(above, below + 1);
}

TEST_F(RouterTest, DeliversWithLinkLatencyAndStamps) {
  msg::Message received;
  const msg::EndpointId dest = router.bind(
      "dest", "h1", [&](msg::Message&& m) { received = std::move(m); });
  EXPECT_TRUE(router.send(h0, request_to(dest, "ping")));
  loop.run();
  EXPECT_EQ(received.method, "ping");
  EXPECT_DOUBLE_EQ(received.ts.sent, 0.0);
  EXPECT_DOUBLE_EQ(received.ts.received, 1e-3);
  EXPECT_EQ(router.sent(), 1u);
}

TEST_F(RouterTest, SameHostTakesTheZoneLoopback) {
  net.set_zone_loopback(
      "z", sim::LinkModel{common::Distribution::constant(5e-5), 0});
  std::vector<double> arrivals;
  const auto on_arrival = [&](msg::Message&& m) {
    arrivals.push_back(m.ts.received);
  };
  const msg::EndpointId dest = router.bind("dest", "h1", on_arrival);
  router.send(h1, request_to(dest));
  router.send(h0, request_to(dest));
  loop.run();
  EXPECT_EQ(arrivals, (std::vector<double>{5e-5, 1e-3}));
}

TEST_F(RouterTest, UnknownTargetDropsAndReturnsFalse) {
  EXPECT_FALSE(router.send(h0, request_to(router.endpoint("nowhere"))));
  EXPECT_EQ(router.dropped(), 1u);
  EXPECT_EQ(router.sent(), 0u);
}

TEST_F(RouterTest, UnbindWhileInFlightDropsAtArrival) {
  int handled = 0;
  const msg::EndpointId dest =
      router.bind("dest", "h1", [&](msg::Message&&) { ++handled; });
  router.send(h0, request_to(dest));
  router.unbind(dest);
  loop.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(router.dropped(), 1u);
}

TEST_F(RouterTest, RebindReplacesHandler) {
  int first = 0;
  int second = 0;
  const msg::EndpointId dest =
      router.bind("dest", "h1", [&](msg::Message&&) { ++first; });
  EXPECT_EQ(router.bind("dest", "h1", [&](msg::Message&&) { ++second; }),
            dest);
  router.send(h0, request_to(dest));
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(router.host_of("dest"), "h1");
  EXPECT_THROW((void)router.host_of("gone"), Error);
  router.unbind(dest);
  EXPECT_THROW((void)router.host_of("dest"), Error);
}

TEST_F(RouterTest, RebindWhileInFlightReachesTheNewHandler) {
  // A service restart: the address unbinds and binds again, on another
  // host, while a message to it is in flight. The address keeps its id,
  // so the message reaches the new handler.
  std::string got;
  const msg::EndpointId dest =
      router.bind("dest", "h1", [&](msg::Message&&) { got = "old"; });
  router.send(h0, request_to(dest));
  router.unbind(dest);
  EXPECT_EQ(router.bind("dest", "h0", [&](msg::Message&&) { got = "new"; }),
            dest);
  loop.run();
  EXPECT_EQ(got, "new");
  EXPECT_EQ(router.host_of("dest"), "h0");
  EXPECT_EQ(router.dropped(), 0u);
}

TEST_F(RouterTest, HandlerMaySendAndBindWhileItRuns) {
  // The handler grows the in-flight slab and the endpoint table while
  // it holds the message it was given.
  std::vector<std::string> seen;
  const msg::EndpointId sink = router.bind(
      "sink", "h0", [&](msg::Message&& m) { seen.push_back(m.method); });
  const msg::EndpointId fan = router.bind(
      "fan", "h1", [&](msg::Message&& m) {
        for (int i = 0; i < 16; ++i) {
          router.bind("extra." + std::to_string(i), "h1",
                      [](msg::Message&&) {});
          router.send(h1, request_to(sink, "copy"));
        }
        seen.push_back(m.method);
      });
  router.send(h0, request_to(fan, "original"));
  loop.run();
  ASSERT_EQ(seen.size(), 17u);
  EXPECT_EQ(seen.front(), "original");
  EXPECT_EQ(router.sent(), 17u);
}

TEST_F(RouterTest, SendOverAMissingLinkThrowsAndDeliversNothing) {
  const sim::HostIndex far = net.register_host("far", "other");
  std::vector<std::string> seen;
  const msg::EndpointId dest = router.bind(
      "dest", "h1", [&](msg::Message&& m) { seen.push_back(m.method); });
  EXPECT_THROW(router.send(far, request_to(dest, "lost")), Error);
  router.send(h0, request_to(dest, "kept"));
  loop.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"kept"}));
}

TEST_F(RouterTest, BindValidation) {
  EXPECT_THROW(router.bind("", "h0", [](msg::Message&&) {}), Error);
  EXPECT_THROW(router.bind("a", "unknown-host", [](msg::Message&&) {}),
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
