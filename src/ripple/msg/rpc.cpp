#include "ripple/msg/rpc.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::msg {

// ---------------------------------------------------------------------------
// Responder
// ---------------------------------------------------------------------------

Responder::Responder(Router& router, sim::HostIndex host, Message&& request)
    : router_(&router), host_(host), request_(std::move(request)) {}

void Responder::begin_compute() {
  request_.ts.compute_start = router_->loop().now();
}

void Responder::end_compute() {
  request_.ts.compute_end = router_->loop().now();
}

void Responder::finalize_stamps() {
  // Trivial handlers never call begin/end_compute: treat compute as an
  // instantaneous step at reply time so RequestTiming stays well-formed.
  const double now = router_->loop().now();
  if (request_.ts.compute_start < 0) request_.ts.compute_start = now;
  if (request_.ts.compute_end < 0) request_.ts.compute_end = now;
}

void Responder::reply(json::Value payload) {
  ensure(!replied_, Errc::invalid_state, "responder already replied");
  replied_ = true;
  finalize_stamps();
  router_->send(host_, router_->reply(request_, std::move(payload)));
}

void Responder::fail(std::string error) {
  ensure(!replied_, Errc::invalid_state, "responder already replied");
  replied_ = true;
  finalize_stamps();
  router_->send(host_, router_->fail_reply(request_, std::move(error)));
}

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

RpcServer::RpcServer(Router& router, const Address& address,
                     const sim::HostId& host)
    : router_(router),
      endpoint_(router_.bind(
          address, host,
          [this](Message&& message) { dispatch(std::move(message)); })),
      host_(router_.network().host_index(host)) {}

RpcServer::~RpcServer() { router_.unbind(endpoint_); }

void RpcServer::bind_method(const std::string& name, Method handler) {
  ensure(static_cast<bool>(handler), Errc::invalid_argument,
         "bind_method: empty handler");
  methods_[name] = std::move(handler);
}

void RpcServer::dispatch(Message&& message) {
  if (message.kind != MessageKind::request) return;  // ignore stray replies
  auto responder =
      std::make_shared<Responder>(router_, host_, std::move(message));
  const auto it = methods_.find(responder->request().method);
  if (it == methods_.end()) {
    responder->fail(strutil::cat("unknown method '",
                                 responder->request().method, "'"));
    return;
  }
  it->second(std::move(responder));
}

// ---------------------------------------------------------------------------
// RpcClient
// ---------------------------------------------------------------------------

RpcClient::RpcClient(Router& router, const Address& address,
                     const sim::HostId& host)
    : router_(router),
      endpoint_(router_.bind(
          address, host,
          [this](Message&& message) { on_message(std::move(message)); })),
      host_(router_.network().host_index(host)) {}

RpcClient::~RpcClient() {
  router_.unbind(endpoint_);
  for (const auto& [number, pending] : pending_) {
    if (pending.timer.valid()) router_.loop().cancel(pending.timer);
  }
}

void RpcClient::call(const Address& target, const std::string& method,
                     json::Value args, DoneCallback on_done,
                     sim::Duration timeout) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "call: empty callback");
  Message request = router_.request(endpoint_, router_.endpoint(target),
                                    method, std::move(args));
  const std::uint64_t number = request.number;

  Pending pending;
  pending.on_done = std::move(on_done);
  if (timeout > 0.0) {
    pending.timer = router_.loop().call_after(timeout, [this, number] {
      const auto it = pending_.find(number);
      if (it == pending_.end()) return;
      Pending expired = std::move(it->second);
      pending_.erase(it);
      ++timeouts_;
      CallResult result;
      result.ok = false;
      result.error = "timeout";
      expired.on_done(std::move(result));
    });
  }
  pending_.emplace(number, std::move(pending));

  if (!router_.send(host_, std::move(request))) {
    // Target unbound: fail asynchronously for uniform callback ordering.
    router_.loop().post([this, number, alive = std::weak_ptr<char>(alive_)] {
      if (alive.expired()) return;
      const auto it = pending_.find(number);
      if (it == pending_.end()) return;
      Pending failed = std::move(it->second);
      pending_.erase(it);
      if (failed.timer.valid()) router_.loop().cancel(failed.timer);
      CallResult result;
      result.ok = false;
      result.error = "target unreachable";
      failed.on_done(std::move(result));
    });
  }
}

void RpcClient::on_message(Message&& message) {
  if (message.kind != MessageKind::reply) return;
  const auto it = pending_.find(message.number);
  if (it == pending_.end()) {
    ++late_;  // reply after timeout: drop
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timer.valid()) router_.loop().cancel(pending.timer);

  CallResult result;
  result.ok = message.ok;
  result.error = std::move(message.error);
  result.payload = std::move(message.payload);
  result.ts = message.ts;
  pending.on_done(std::move(result));
}

}  // namespace ripple::msg
