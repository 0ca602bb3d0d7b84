#include "ripple/msg/router.hpp"

#include "ripple/common/error.hpp"

namespace ripple::msg {

Router::Router(sim::EventLoop& loop, sim::Network& network)
    : loop_(loop), network_(network) {}

EndpointId Router::endpoint(const Address& address) {
  const auto [it, fresh] =
      ids_.try_emplace(address, static_cast<EndpointId>(endpoints_.size()));
  if (fresh) endpoints_.push_back(Endpoint{address, 0, nullptr});
  return it->second;
}

EndpointId Router::bind(const Address& address, const sim::HostId& host,
                        Handler handler) {
  ensure(!address.empty(), Errc::invalid_argument, "bind: empty address");
  ensure(static_cast<bool>(handler), Errc::invalid_argument,
         "bind: empty handler");
  const sim::HostIndex host_index = network_.host_index(host);
  const EndpointId id = endpoint(address);
  endpoints_[id].host = host_index;
  endpoints_[id].handler = std::move(handler);
  return id;
}

void Router::unbind(EndpointId endpoint) { endpoints_[endpoint].handler = {}; }

const sim::HostId& Router::host_of(const Address& address) const {
  const auto it = ids_.find(address);
  ensure(it != ids_.end() && endpoints_[it->second].handler, Errc::not_found,
         "address '", address, "' is not bound");
  return network_.host_name(endpoints_[it->second].host);
}

Message Router::request(EndpointId sender, EndpointId target,
                        std::string method, json::Value payload) {
  Message m;
  m.sender = sender;
  m.target = target;
  m.number = next_number_++;
  m.method = std::move(method);
  m.payload = std::move(payload);
  return m;
}

Message Router::reply(const Message& request, json::Value payload) {
  ++next_number_;
  Message m;
  m.kind = MessageKind::reply;
  m.sender = request.target;
  m.target = request.sender;
  m.number = request.number;
  m.method = request.method;
  m.payload = std::move(payload);
  m.ts = request.ts;  // carry accumulated stamps back to the client
  return m;
}

Message Router::fail_reply(const Message& request, std::string error) {
  Message m = reply(request, json::Value::object());
  m.ok = false;
  m.error = std::move(error);
  return m;
}

std::size_t Router::wire_size(const Message& message) const noexcept {
  // Envelope overhead approximates the framing ZeroMQ + JSON would add.
  constexpr std::size_t kEnvelope = 96;
  std::size_t size = kEnvelope + message.method.size() +
                     endpoints_[message.sender].address.size() +
                     endpoints_[message.target].address.size() +
                     message.error.size() + message.payload.estimate_size();
  if (message.kind == MessageKind::reply) {
    // The correlation id "msg.NNNNNN": six digits, more past 999,999.
    std::size_t digits = 6;
    for (std::uint64_t n = message.number / 1'000'000; n > 0; n /= 10) {
      ++digits;
    }
    size += 4 + digits;
  }
  return size;
}

bool Router::send(sim::HostIndex from, Message&& message) {
  const Endpoint& to = endpoints_[message.target];
  if (!to.handler) {
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
  const std::size_t bytes = wire_size(message);
  // The slot is taken only once delivery is scheduled: a missing link
  // throws from deliver() and leaves nothing in flight.
  const auto slot = free_slots_.empty()
                        ? static_cast<std::uint32_t>(in_flight_.size())
                        : free_slots_.back();
  network_.deliver(from, to.host, bytes, [this, slot] { arrive(slot); });
  if (slot == in_flight_.size()) {
    in_flight_.push_back(std::move(message));
  } else {
    free_slots_.pop_back();
    in_flight_[slot] = std::move(message);
  }
  return true;
}

void Router::arrive(std::uint32_t slot) {
  Message message = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  // The target may have unbound, or rebound elsewhere, while in flight.
  const Endpoint& to = endpoints_[message.target];
  if (!to.handler) {
    ++dropped_;
    return;
  }
  if (message.kind == MessageKind::reply) {
    message.ts.reply_received = loop_.now();
  } else {
    message.ts.received = loop_.now();
  }
  to.handler(std::move(message));
}

}  // namespace ripple::msg
