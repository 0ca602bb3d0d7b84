#include "ripple/msg/router.hpp"

#include "ripple/common/error.hpp"

namespace ripple::msg {

Router::Router(sim::EventLoop& loop, sim::Network& network)
    : loop_(loop), network_(network) {}

void Router::bind(const Address& address, const sim::HostId& host,
                  Handler handler) {
  ensure(!address.empty(), Errc::invalid_argument, "bind: empty address");
  ensure(static_cast<bool>(handler), Errc::invalid_argument,
         "bind: empty handler");
  ensure(network_.has_host(host), Errc::not_found, "bind: unknown host '", host,
         "'");
  bindings_[address] = Binding{host, std::move(handler)};
}

void Router::unbind(const Address& address) { bindings_.erase(address); }

bool Router::bound(const Address& address) const {
  return bindings_.count(address) != 0;
}

const sim::HostId& Router::host_of(const Address& address) const {
  const auto it = bindings_.find(address);
  ensure(it != bindings_.end(), Errc::not_found, "address '", address,
         "' is not bound");
  return it->second.host;
}

bool Router::send(const sim::HostId& from_host, Message message) {
  const auto it = bindings_.find(message.target);
  if (it == bindings_.end()) {
    ++dropped_;
    return false;
  }
  const sim::SimTime now = loop_.now();
  if (message.kind == MessageKind::reply) {
    message.ts.reply_sent = now;
  } else {
    message.ts.sent = now;
  }
  ++sent_;
  const sim::HostId& to_host = it->second.host;
  const std::size_t bytes = message.wire_size();
  network_.deliver(
      from_host, to_host, bytes,
      [this, message = std::move(message)]() mutable {
        // Re-resolve: the endpoint may have unbound while in flight.
        const auto target = bindings_.find(message.target);
        if (target == bindings_.end()) {
          ++dropped_;
          return;
        }
        if (message.kind == MessageKind::reply) {
          message.ts.reply_received = loop_.now();
        } else {
          message.ts.received = loop_.now();
        }
        target->second.handler(std::move(message));
      });
  return true;
}

}  // namespace ripple::msg
