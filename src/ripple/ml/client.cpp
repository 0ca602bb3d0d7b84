#include "ripple/ml/client.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "ripple/common/error.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/common/strutil.hpp"
#include "ripple/ml/load_balancer.hpp"

namespace ripple::ml {

ClientConfig ClientConfig::from_json(const json::Value& config) {
  ClientConfig out;
  if (config.contains("endpoints")) {
    for (const auto& endpoint : config.at("endpoints").as_array()) {
      out.endpoints.push_back(endpoint.as_string());
    }
  }
  out.requests = static_cast<std::size_t>(
      config.get_or("requests", json::Value(16)).as_int());
  out.concurrency = static_cast<std::size_t>(
      config.get_or("concurrency", json::Value(1)).as_int());
  out.series = config.get_or("series", json::Value("requests")).as_string();
  out.balancer =
      config.get_or("balancer", json::Value("round_robin")).as_string();
  out.timeout = config.get_or("timeout", json::Value(0.0)).as_double();
  out.think_time =
      config.get_or("think_time", json::Value(0.0)).as_double();
  out.prompt_tokens =
      config.get_or("prompt_tokens", json::Value(64)).as_int();
  out.max_retries = static_cast<std::size_t>(
      config.get_or("max_retries", json::Value(0)).as_int());
  out.retry_backoff =
      config.get_or("retry_backoff", json::Value(0.05)).as_double();
  out.retry_multiplier =
      config.get_or("retry_multiplier", json::Value(2.0)).as_double();
  out.watch = config.get_or("watch", json::Value("")).as_string();
  return out;
}

json::Value ClientConfig::to_json() const {
  json::Value out = json::Value::object();
  json::Value eps = json::Value::array();
  for (const auto& endpoint : endpoints) eps.push_back(endpoint);
  out.set("endpoints", std::move(eps));
  out.set("requests", requests);
  out.set("concurrency", concurrency);
  out.set("series", series);
  out.set("balancer", balancer);
  out.set("timeout", timeout);
  out.set("think_time", think_time);
  out.set("prompt_tokens", prompt_tokens);
  out.set("max_retries", max_retries);
  out.set("retry_backoff", retry_backoff);
  out.set("retry_multiplier", retry_multiplier);
  out.set("watch", watch);
  return out;
}

InferenceClientPayload::InferenceClientPayload(
    const core::TaskDescription& desc)
    : desc_(desc) {}

/// Book-keeps one client task's request stream; owns the RpcClient and
/// load balancer, and is kept alive by its pending callbacks and timers
/// until all requests complete or stop() ends it. It holds the runtime
/// and uid it needs, not the execution context, which the TaskManager
/// frees when the attempt ends.
/// Failures (server rejects, vanished endpoints, timeouts) are retried
/// with bounded exponential backoff; each retry re-picks an endpoint,
/// so backpressure doubles as rerouting. With `watch` set, the balancer
/// endpoint set follows the ServiceManager's "endpoints" events.
class ClientRun : public std::enable_shared_from_this<ClientRun> {
 public:
  ClientRun(core::ExecutionContext& ctx, ClientConfig config,
            core::TaskPayload::DoneFn done, core::TaskPayload::FailFn fail)
      : runtime_(*ctx.runtime),
        uid_(ctx.uid),
        config_(std::move(config)),
        done_(std::move(done)),
        fail_(std::move(fail)),
        rpc_(std::in_place, runtime_.router(), uid_ + ".cli", ctx.host),
        retry_rng_(ctx.rng.fork("retry")),
        balancer_(make_balancer(config_.balancer, config_.endpoints,
                                ctx.rng.fork("balancer"))) {}

  void start() {
    if (config_.requests == 0) {
      finish();
      return;
    }
    if (!config_.watch.empty()) {
      auto self = shared_from_this();
      subscription_ = runtime_.pubsub().subscribe(
          "endpoints",
          [self](const std::string&, const json::Value& event) {
            self->on_endpoint_event(event);
          });
      // Reconcile with the synchronous directory: endpoint transitions
      // between the configured snapshot and this subscription (task
      // launch takes real simulated time) would otherwise be invisible
      // for the task's whole lifetime — in both directions.
      reconcile_watch();
    }
    const std::size_t first_wave =
        std::min(config_.concurrency, config_.requests);
    for (std::size_t i = 0; i < first_wave; ++i) send_next();
  }

  /// Ends the run early: its payload was destroyed. Destroying the
  /// RpcClient unbinds the address and drops every pending callback
  /// (and the references to this run they hold); armed retry and think
  /// timers find the run finished and return. Nothing calls done/fail
  /// after.
  void stop() {
    finished_ = true;
    unsubscribe();
    rpc_.reset();
  }

 private:
  void unsubscribe() {
    if (subscription_ != 0) {
      runtime_.pubsub().unsubscribe(subscription_);
      subscription_ = 0;
    }
  }

  void on_endpoint_event(const json::Value& event) {
    if (finished_) return;
    if (event.get_or("name", json::Value("")).as_string() != config_.watch) {
      return;
    }
    const std::string endpoint =
        event.get_or("endpoint", json::Value("")).as_string();
    if (endpoint.empty()) return;
    if (event.get_or("up", json::Value(false)).as_bool()) {
      deferred_down_.erase(endpoint);  // the endpoint came back
      if (balancer_->add_endpoint(endpoint)) ++endpoints_added_;
      flush_deferred_down();
    } else {
      mark_endpoint_down(endpoint);
    }
  }

  /// Evicts a dead endpoint — but never the last one: a drained pool
  /// keeps routing to the survivor (requests fail fast and the retry
  /// path backs off). A skipped removal is remembered and applied the
  /// moment a replacement comes up; leaving the dead endpoint in a
  /// least-outstanding rotation would be pathological, since its
  /// fast-failing requests keep its in-flight count at zero and make
  /// it the preferred pick.
  void mark_endpoint_down(const std::string& endpoint) {
    if (balancer_->endpoints().size() > 1) {
      if (balancer_->remove_endpoint(endpoint)) ++endpoints_removed_;
    } else if (balancer_->has_endpoint(endpoint)) {
      deferred_down_.insert(endpoint);
    }
  }

  void flush_deferred_down() {
    for (auto it = deferred_down_.begin();
         it != deferred_down_.end() && balancer_->endpoints().size() > 1;) {
      if (balancer_->remove_endpoint(*it)) ++endpoints_removed_;
      it = deferred_down_.erase(it);
    }
  }

  /// Re-syncs the balancer pool with the synchronous endpoint
  /// directory, in both directions. Called at start() and again before
  /// each retry attempt: the subscription keeps the pool current while
  /// the run is live, but a request sleeping through its backoff must
  /// not re-pick from drifted state — an endpoint whose removal the
  /// last-endpoint guard deferred stays preferred (zero in-flight)
  /// even after a replacement registered, and the retry would keep
  /// hammering the corpse until its budget drained.
  void reconcile_watch() {
    if (config_.watch.empty()) return;
    const std::vector<std::string> current =
        runtime_.endpoints_of(config_.watch);
    for (const std::string& endpoint : current) {
      deferred_down_.erase(endpoint);
      balancer_->add_endpoint(endpoint);
    }
    const std::vector<std::string> known = balancer_->endpoints();
    for (const std::string& endpoint : known) {
      if (std::find(current.begin(), current.end(), endpoint) ==
          current.end()) {
        mark_endpoint_down(endpoint);
      }
    }
    flush_deferred_down();
  }

  void send_next() {
    if (sent_ >= config_.requests) return;
    ++sent_;
    ++in_flight_;
    attempt(0);
  }

  void attempt(std::size_t tries) {
    const std::string target = balancer_->pick();
    json::Value args = json::Value::object();
    args.set("prompt_tokens", config_.prompt_tokens);
    args.set("client", uid_);
    auto self = shared_from_this();
    rpc_->call(
        target, "infer", std::move(args),
        [self, target, tries](msg::CallResult result) {
          self->on_result(target, tries, std::move(result));
        },
        config_.timeout);
  }

  void on_result(const std::string& target, std::size_t tries,
                 msg::CallResult result) {
    balancer_->on_complete(target);
    if (!result.ok && tries < config_.max_retries) {
      // Bounded exponential backoff before the next attempt; the
      // request slot stays occupied, which is what makes the client
      // stop hammering a saturated pool. Jitter (0.5x..1.5x, from the
      // task's seeded stream) decorrelates the retry storm — without
      // it, rejected cohorts re-arrive in lockstep and can starve each
      // other through every retry round.
      ++retried_;
      last_error_ = result.error;
      const sim::Duration delay =
          config_.retry_backoff *
          std::pow(config_.retry_multiplier, static_cast<double>(tries)) *
          retry_rng_.uniform(0.5, 1.5);
      auto self = shared_from_this();
      runtime_.loop().call_after(delay, [self, tries] {
        if (self->finished_) return;
        self->reconcile_watch();
        self->attempt(tries + 1);
      });
      return;
    }
    --in_flight_;
    if (result.ok) {
      ++ok_;
      const msg::RequestTiming timing = result.timing();
      runtime_.metrics().add_request(config_.series, timing);
      totals_.add(timing.total);
    } else {
      ++failed_;
      last_error_ = result.error;
    }
    if (sent_ < config_.requests) {
      if (config_.think_time > 0.0) {
        auto self = shared_from_this();
        runtime_.loop().call_after(config_.think_time, [self] {
          if (!self->finished_) self->send_next();
        });
      } else {
        send_next();
      }
    } else if (in_flight_ == 0) {
      finish();
    }
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    unsubscribe();
    if (ok_ == 0 && failed_ > 0) {
      fail_(strutil::cat("all ", failed_, " requests failed: ",
                         last_error_));
      return;
    }
    json::Value result = json::Value::object();
    result.set("sent", sent_);
    result.set("ok", ok_);
    result.set("failed", failed_);
    result.set("retried", retried_);
    if (endpoints_added_ + endpoints_removed_ > 0) {
      result.set("endpoints_added", endpoints_added_);
      result.set("endpoints_removed", endpoints_removed_);
    }
    if (!totals_.empty()) {
      result.set("response_time", totals_.to_json());
    }
    done_(std::move(result));
  }

  core::Runtime& runtime_;
  std::string uid_;
  ClientConfig config_;
  core::TaskPayload::DoneFn done_;
  core::TaskPayload::FailFn fail_;
  /// Empty once stop() ran.
  std::optional<msg::RpcClient> rpc_;
  common::Rng retry_rng_;
  std::unique_ptr<LoadBalancer> balancer_;
  msg::PubSub::SubscriptionId subscription_ = 0;
  /// Down events skipped by the last-endpoint guard, applied once a
  /// replacement endpoint arrives.
  std::set<std::string> deferred_down_;
  std::size_t sent_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t ok_ = 0;
  std::size_t failed_ = 0;
  std::size_t retried_ = 0;
  std::size_t endpoints_added_ = 0;
  std::size_t endpoints_removed_ = 0;
  std::string last_error_;
  bool finished_ = false;
  common::Summary totals_;
};

InferenceClientPayload::~InferenceClientPayload() {
  if (const auto run = run_.lock()) run->stop();
}

void InferenceClientPayload::run(core::ExecutionContext& ctx, DoneFn done,
                                 FailFn fail) {
  // The execution context carries the description's payload config; a
  // wrapper payload may have rewritten the description (e.g. to inject
  // resolved endpoints), in which case the description wins.
  const json::Value& effective =
      desc_.payload.contains("endpoints") ? desc_.payload : ctx.config;
  ClientConfig config = ClientConfig::from_json(effective);
  if (config.endpoints.empty()) {
    fail("inference client has no endpoints configured");
    return;
  }
  auto run_state = std::make_shared<ClientRun>(
      ctx, std::move(config), std::move(done), std::move(fail));
  run_ = run_state;
  // start() may finish the run at once, and done/fail may destroy this
  // payload: nothing below touches it.
  run_state->start();
}

}  // namespace ripple::ml
