#pragma once

/// \file router.hpp
/// Endpoint routing over the network model.
///
/// The Router plays the role ZeroMQ plays in the paper's implementation:
/// endpoints bind an address on a host; send() samples the link delay
/// between the two hosts and delivers the message to the target's
/// handler at arrival time. It also centralizes the `sent`/`received`
/// (and `reply_sent`/`reply_received`) timestamping so the RT metric is
/// computed identically everywhere.
///
/// The message path carries no strings. Every address gets a dense
/// EndpointId, which it keeps across unbind and rebind, so a message in
/// flight to a restarting service reaches the new handler. The Router
/// numbers each request itself, so a session's messages (and their wire
/// sizes) do not depend on what other sessions in the process sent. An
/// in-flight message is stored once, in a slab slot that its delivery
/// event names.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ripple/msg/message.hpp"
#include "ripple/sim/event_loop.hpp"
#include "ripple/sim/network.hpp"

namespace ripple::msg {

class Router {
 public:
  using Handler = std::function<void(Message&&)>;

  Router(sim::EventLoop& loop, sim::Network& network);

  /// Binds `address` on `host`; incoming messages invoke `handler`.
  /// Rebinding an existing address replaces its host and handler
  /// (service restart). Returns the address's id.
  EndpointId bind(const Address& address, const sim::HostId& host,
                  Handler handler);

  /// Removes a binding; messages that arrive for it are dropped.
  void unbind(EndpointId endpoint);

  /// Id of `address`; an address never bound gets an unbound id.
  [[nodiscard]] EndpointId endpoint(const Address& address);

  /// Host on which `address` is bound; throws not_found when unbound.
  [[nodiscard]] const sim::HostId& host_of(const Address& address) const;

  /// A request from `sender` to `target`, numbered by this Router.
  [[nodiscard]] Message request(EndpointId sender, EndpointId target,
                                std::string method, json::Value payload);

  /// The reply skeleton for `request`: swapped ends, the request's
  /// number and its accumulated timestamps. Advances the numbering as a
  /// request does.
  [[nodiscard]] Message reply(const Message& request, json::Value payload);

  /// An error reply for `request`.
  [[nodiscard]] Message fail_reply(const Message& request, std::string error);

  /// Estimated serialized size, used by the network bandwidth model:
  /// the envelope, the method, both addresses, a reply's correlation id
  /// ("msg." and the number padded to six digits), the error and the
  /// payload.
  [[nodiscard]] std::size_t wire_size(const Message& message) const noexcept;

  /// Sends `message` from host `from`. Stamps ts.sent / ts.reply_sent,
  /// samples the link delay and schedules delivery. Returns false (and
  /// counts a drop) when the target is not bound.
  bool send(sim::HostIndex from, Message&& message);

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] sim::Network& network() noexcept { return network_; }

 private:
  struct Endpoint {
    Address address;
    sim::HostIndex host = 0;
    Handler handler;  ///< empty while unbound
  };

  /// Delivers the message in `slot`; it leaves the slot before its
  /// handler runs, since the handler may send and grow the slab.
  void arrive(std::uint32_t slot);

  sim::EventLoop& loop_;
  sim::Network& network_;
  /// By id. A deque, so binding a new address from inside a handler
  /// never moves the running handler.
  std::deque<Endpoint> endpoints_;
  std::unordered_map<Address, EndpointId> ids_;
  std::vector<Message> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_number_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace ripple::msg
