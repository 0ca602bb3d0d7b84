#pragma once

/// \file client.hpp
/// The "inference_client" task payload: a compute task that issues
/// inference requests to service endpoints.
///
/// This is the client side of every experiment in the paper: a task that
/// sends a fixed number of requests (1024 per client in Experiments 2-3)
/// to one or more services, with a configurable number of requests in
/// flight, a load-balancing policy and an optional timeout. Each
/// completed request's timing decomposition is recorded into a named
/// metrics series so benches aggregate the exact stacks of Figs. 4-6.
///
/// Configuration keys (TaskDescription.payload):
///   endpoints      - array of service endpoint strings (required)
///   requests       - total requests to send (default 16)
///   concurrency    - max requests in flight (default 1)
///   series         - metrics series name (default "requests")
///   balancer       - round_robin | random | least_outstanding
///   timeout        - per-request timeout seconds (0 = none)
///   think_time     - pause between a completion and the next send
///   prompt_tokens  - nominal prompt size recorded in the request payload
///   max_retries    - bounded retries per request on reject/failure
///                    (default 0: fail fast, the paper's behaviour)
///   retry_backoff  - first retry delay seconds (default 0.05)
///   retry_multiplier - exponential backoff factor (default 2.0)
///   watch          - service name: subscribe to the ServiceManager's
///                    "endpoints" events and add/remove balancer
///                    endpoints as replicas scale ("" = static set)

#include <memory>

#include "ripple/core/executor.hpp"

namespace ripple::ml {

/// Parsed client configuration (exposed for direct use in tests).
struct ClientConfig {
  std::vector<std::string> endpoints;
  std::size_t requests = 16;
  std::size_t concurrency = 1;
  std::string series = "requests";
  std::string balancer = "round_robin";
  sim::Duration timeout = 0.0;
  sim::Duration think_time = 0.0;
  std::int64_t prompt_tokens = 64;

  /// Client-side backpressure: a rejected/failed request is retried up
  /// to max_retries times, waiting retry_backoff * retry_multiplier^n
  /// (jittered 0.5x..1.5x from the task's seeded stream) before attempt
  /// n+1. Each retry re-picks an endpoint, so retries are also what
  /// reroutes traffic away from drained replicas.
  std::size_t max_retries = 0;
  sim::Duration retry_backoff = 0.05;
  double retry_multiplier = 2.0;

  /// Service group name whose endpoint up/down events this client
  /// follows (empty = fixed endpoint set).
  std::string watch;

  [[nodiscard]] static ClientConfig from_json(const json::Value& config);
  [[nodiscard]] json::Value to_json() const;
};

class ClientRun;

/// Destroying the payload (its attempt ended: done, failed, interrupted
/// or a losing speculative twin) stops the request stream at once: no
/// further requests or callbacks, and the client address is unbound.
class InferenceClientPayload final : public core::TaskPayload {
 public:
  explicit InferenceClientPayload(const core::TaskDescription& desc);
  ~InferenceClientPayload() override;
  InferenceClientPayload(const InferenceClientPayload&) = delete;
  InferenceClientPayload& operator=(const InferenceClientPayload&) = delete;

  void run(core::ExecutionContext& ctx, DoneFn done, FailFn fail) override;

 private:
  core::TaskDescription desc_;
  std::weak_ptr<ClientRun> run_;
};

}  // namespace ripple::ml
