#pragma once

/// \file message.hpp
/// The message envelope exchanged between tasks (clients) and services.
///
/// Every request/reply pair carries a Timestamps record which the router
/// and servers fill in as the message moves through the system. The
/// decomposition of the paper's Response Time metric (communication /
/// service / inference — Figs. 4-6) is computed from exactly these
/// stamps, so their meaning is documented precisely here.

#include <cstdint>
#include <string>

#include "ripple/common/json.hpp"

namespace ripple::msg {

/// Network-wide endpoint address, e.g. "svc.000002" or "client.000017".
using Address = std::string;

/// Dense id the Router gives an address the first time it is bound or
/// called. Messages name their ends by id; the address string is looked
/// up only at bind and call time and for errors.
using EndpointId = std::uint32_t;

enum class MessageKind { request, reply };

/// Wall-clock (simulation-time) stamps along a request's life cycle.
/// Unset stamps are -1.
struct Timestamps {
  double sent = -1.0;            ///< request left the client
  double received = -1.0;        ///< request arrived at the service host
  double compute_start = -1.0;   ///< payload execution (inference) began
  double compute_end = -1.0;     ///< payload execution finished
  double reply_sent = -1.0;      ///< reply left the service
  double reply_received = -1.0;  ///< reply arrived back at the client

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static Timestamps from_json(const json::Value& v);
};

/// Derived per-request timing decomposition (seconds), the unit of the
/// paper's Figs. 4-6 stacked bars.
struct RequestTiming {
  double communication = 0.0;  ///< both network flight legs
  double service = 0.0;        ///< queueing + parse + serialize at the service
  double inference = 0.0;      ///< model compute (0 for NOOP)
  double total = 0.0;          ///< end-to-end response time

  /// Builds the decomposition from a completed request's stamps.
  /// Throws invalid_state if any required stamp is missing.
  [[nodiscard]] static RequestTiming from(const Timestamps& ts);
};

/// A request or reply. The Router builds both (Router::request, reply
/// and fail_reply), numbers them and computes their wire size.
struct Message {
  MessageKind kind = MessageKind::request;
  bool ok = true;             ///< reply status
  EndpointId sender = 0;      ///< reply-to endpoint
  EndpointId target = 0;      ///< destination endpoint
  /// The request's number, minted by the Router; a reply carries the
  /// number of the request it answers.
  std::uint64_t number = 0;
  std::string method;         ///< RPC method
  std::string error;          ///< reply error text when !ok
  json::Value payload;        ///< method arguments or reply body
  Timestamps ts;
};

}  // namespace ripple::msg
