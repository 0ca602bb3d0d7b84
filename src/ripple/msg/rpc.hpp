#pragma once

/// \file rpc.hpp
/// Request/reply RPC over the Router, with correlation ids and timeouts.
///
/// This is the "well-defined interface (e.g., a REST API) exposed to
/// tasks (i.e., clients)" of the paper's Service Base Class. Handlers may
/// complete asynchronously through the Responder, which is what lets the
/// single-threaded inference server queue requests while earlier ones
/// are still computing.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "ripple/msg/message.hpp"
#include "ripple/msg/router.hpp"

namespace ripple::msg {

/// Outcome of an RPC call, delivered to the client callback.
struct CallResult {
  bool ok = false;
  std::string error;     ///< transport/timeout/application error text
  json::Value payload;   ///< reply body when ok
  Timestamps ts;         ///< full stamp record for metric decomposition

  /// RT decomposition; only valid for ok results.
  [[nodiscard]] RequestTiming timing() const { return RequestTiming::from(ts); }
};

/// Handed to server method handlers; reply exactly once.
class Responder {
 public:
  Responder(Router& router, sim::HostIndex host, Message&& request);

  /// Marks the start of payload computation (stamps ts.compute_start).
  void begin_compute();

  /// Marks the end of payload computation (stamps ts.compute_end).
  void end_compute();

  /// Sends a success reply. begin/end_compute default to "now" if unset,
  /// so trivial handlers stay correct.
  void reply(json::Value payload);

  /// Sends an error reply.
  void fail(std::string error);

  [[nodiscard]] const Message& request() const noexcept { return request_; }
  [[nodiscard]] bool replied() const noexcept { return replied_; }

 private:
  void finalize_stamps();

  Router* router_;
  sim::HostIndex host_;
  Message request_;
  bool replied_ = false;
};

/// Server side: binds an address and dispatches methods.
class RpcServer {
 public:
  /// A method handler; call responder.reply()/fail() exactly once,
  /// possibly after asynchronous work.
  using Method = std::function<void(std::shared_ptr<Responder>)>;

  RpcServer(Router& router, const Address& address, const sim::HostId& host);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void bind_method(const std::string& name, Method handler);

 private:
  void dispatch(Message&& message);

  Router& router_;
  EndpointId endpoint_;
  sim::HostIndex host_;
  std::unordered_map<std::string, Method> methods_;
};

/// Client side: issues calls and matches replies by request number.
/// Destroying a client unbinds its address, cancels its timeout timers
/// and drops every pending callback without running it.
class RpcClient {
 public:
  using DoneCallback = std::function<void(CallResult)>;

  RpcClient(Router& router, const Address& address, const sim::HostId& host);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sends `method(args)` to `target`. `timeout` == 0 disables the timer.
  /// The callback fires exactly once (reply, timeout, or unreachable
  /// target) if the client is still alive then, and never after the
  /// client is destroyed.
  void call(const Address& target, const std::string& method,
            json::Value args, DoneCallback on_done,
            sim::Duration timeout = 0.0);

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::uint64_t timed_out() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t late_replies() const noexcept { return late_; }

 private:
  struct Pending {
    DoneCallback on_done;
    sim::EventLoop::TimerHandle timer;
  };

  void on_message(Message&& message);

  Router& router_;
  EndpointId endpoint_;
  sim::HostIndex host_;
  std::unordered_map<std::uint64_t, Pending> pending_;  // by request number
  std::uint64_t timeouts_ = 0;
  std::uint64_t late_ = 0;
  /// Liveness token captured (weakly) by posted "target unreachable"
  /// events, which cannot be cancelled like the timeout timers.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace ripple::msg
