#include "ripple/msg/rpc.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::msg {

// ---------------------------------------------------------------------------
// Responder
// ---------------------------------------------------------------------------

Responder::Responder(Router& router, sim::HostId host, Message request)
    : router_(&router), host_(std::move(host)), request_(std::move(request)) {}

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
  Message m = Message::reply_to(request_, std::move(payload));
  router_->send(host_, std::move(m));
}

void Responder::fail(std::string error) {
  ensure(!replied_, Errc::invalid_state, "responder already replied");
  replied_ = true;
  finalize_stamps();
  Message m = Message::fail_reply_to(request_, std::move(error));
  router_->send(host_, std::move(m));
}

// ---------------------------------------------------------------------------
// RpcServer
// ---------------------------------------------------------------------------

RpcServer::RpcServer(Router& router, Address address, sim::HostId host)
    : router_(router), address_(std::move(address)), host_(std::move(host)) {
  router_.bind(address_, host_,
               [this](Message message) { dispatch(std::move(message)); });
}

RpcServer::~RpcServer() { router_.unbind(address_); }

void RpcServer::bind_method(const std::string& name, Method handler) {
  ensure(static_cast<bool>(handler), Errc::invalid_argument,
         "bind_method: empty handler");
  methods_[name] = std::move(handler);
}

void RpcServer::dispatch(Message message) {
  if (message.kind != MessageKind::request) return;  // ignore stray replies
  ++received_;
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

RpcClient::RpcClient(Router& router, Address address, sim::HostId host)
    : router_(router), address_(std::move(address)), host_(std::move(host)) {
  router_.bind(address_, host_,
               [this](Message message) { on_message(std::move(message)); });
}

RpcClient::~RpcClient() {
  router_.unbind(address_);
  for (const auto& [corr_id, pending] : pending_) {
    if (pending.timer.valid()) router_.loop().cancel(pending.timer);
  }
}

void RpcClient::call(const Address& target, const std::string& method,
                     json::Value args, DoneCallback on_done,
                     sim::Duration timeout) {
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "call: empty callback");
  Message request =
      Message::request(method, address_, target, std::move(args));
  const std::string corr_id = request.uid;

  Pending pending;
  pending.on_done = std::move(on_done);
  if (timeout > 0.0) {
    pending.timer = router_.loop().call_after(timeout, [this, corr_id] {
      const auto it = pending_.find(corr_id);
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
  pending_.emplace(corr_id, std::move(pending));

  if (!router_.send(host_, std::move(request))) {
    // Target unbound: fail asynchronously for uniform callback ordering.
    router_.loop().post([this, corr_id, alive = std::weak_ptr<char>(alive_)] {
      if (alive.expired()) return;
      const auto it = pending_.find(corr_id);
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

void RpcClient::on_message(Message message) {
  if (message.kind != MessageKind::reply) return;
  const auto it = pending_.find(message.corr_id);
  if (it == pending_.end()) {
    ++late_;  // reply after timeout: drop
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timer.valid()) router_.loop().cancel(pending.timer);

  CallResult result;
  result.ok = message.ok;
  result.error = message.error;
  result.payload = std::move(message.payload);
  result.ts = message.ts;
  pending.on_done(std::move(result));
}

}  // namespace ripple::msg
