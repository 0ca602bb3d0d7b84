#include "ripple/msg/message.hpp"

#include "ripple/common/error.hpp"

namespace ripple::msg {

json::Value Timestamps::to_json() const {
  json::Value out = json::Value::object();
  out.set("sent", sent);
  out.set("received", received);
  out.set("compute_start", compute_start);
  out.set("compute_end", compute_end);
  out.set("reply_sent", reply_sent);
  out.set("reply_received", reply_received);
  return out;
}

Timestamps Timestamps::from_json(const json::Value& v) {
  Timestamps ts;
  ts.sent = v.get_or("sent", -1.0).as_double();
  ts.received = v.get_or("received", -1.0).as_double();
  ts.compute_start = v.get_or("compute_start", -1.0).as_double();
  ts.compute_end = v.get_or("compute_end", -1.0).as_double();
  ts.reply_sent = v.get_or("reply_sent", -1.0).as_double();
  ts.reply_received = v.get_or("reply_received", -1.0).as_double();
  return ts;
}

RequestTiming RequestTiming::from(const Timestamps& ts) {
  ensure(ts.sent >= 0 && ts.received >= 0 && ts.compute_start >= 0 &&
             ts.compute_end >= 0 && ts.reply_sent >= 0 &&
             ts.reply_received >= 0,
         Errc::invalid_state,
         "request timing requires all six timestamps to be set");
  RequestTiming t;
  t.communication =
      (ts.received - ts.sent) + (ts.reply_received - ts.reply_sent);
  t.service =
      (ts.compute_start - ts.received) + (ts.reply_sent - ts.compute_end);
  t.inference = ts.compute_end - ts.compute_start;
  t.total = ts.reply_received - ts.sent;
  return t;
}

}  // namespace ripple::msg
