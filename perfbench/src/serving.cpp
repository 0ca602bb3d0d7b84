// serving: the paper's Experiments 2 and 3 at scale.
//
// An autoscaled llama-8b group (continuous batching, 2-16 replicas) on
// an 8-node Delta pilot plus persistent llama-8b services on R3
// (ServiceManager::register_remote). Closed-loop inference clients,
// each with 4 requests in flight, a think time and least-outstanding
// balancing: half follow the local group through `watch`, half use
// the remote endpoints. The work arrives as many small events through
// the event loop, msg (router, RPC, pub/sub, network delay sampling),
// ml (batching, balancer, autoscaler) and common::json; the scheduler
// sees only replicas and client tasks and the data plane is idle.

#include <algorithm>
#include <memory>

#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/ml/autoscaler.hpp"
#include "ripple/ml/inference_service.hpp"
#include "ripple/ml/install.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

constexpr std::size_t kClients = 128;
constexpr std::size_t kRequestsPerClient = 320;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kPilotNodes = 8;
constexpr std::size_t kR3Nodes = 2;
constexpr std::size_t kRemoteServices = 16;
constexpr std::size_t kMaxBatch = 16;
constexpr const char* kGroup = "llm";

struct ClientSpec {
  bool local = true;
  double think_time = 0.0;
};

struct ServingInputs {
  std::vector<ClientSpec> clients;
};

std::shared_ptr<const ServingInputs> generate(std::uint64_t seed) {
  common::Rng rng = common::Rng(seed).fork("serving.inputs");
  auto inputs = std::make_shared<ServingInputs>();
  for (std::size_t c = 0; c < kClients; ++c) {
    inputs->clients.push_back({c % 2 == 0, rng.uniform(0.5, 2.0)});
  }
  return inputs;
}

core::ServiceDescription llama(const std::string& name, bool preloaded) {
  core::ServiceDescription desc;
  desc.name = name;
  desc.program = "inference";
  desc.config = json::Value::object({{"model", "llama-8b"},
                                     {"continuous", true},
                                     {"max_batch", kMaxBatch}});
  if (preloaded) desc.config.set("preloaded", true);
  desc.cores = 1;
  desc.gpus = 1;
  return desc;
}

class Serving final : public Workload {
 public:
  Serving(core::Session& session, std::shared_ptr<const ServingInputs> in,
          Spans& spans)
      : session_(session), in_(std::move(in)), spans_(spans) {}

  void setup(Spans& spans) override {
    {
      auto scope = spans.scope("ml.setup", "ml::install");
      ml::install(session_);
    }
    platform::Cluster* r3 = nullptr;
    {
      auto scope = spans.scope("platform.setup",
                               "Session::add_platform+submit_pilot");
      session_.add_platform(platform::delta_profile(kPilotNodes));
      r3 = &session_.add_platform(platform::r3_profile(kR3Nodes));
      pilot_ =
          &session_.submit_pilot({.platform = "delta", .nodes = kPilotNodes});
    }
    auto scope = spans.scope("ml.setup",
                             "ServiceManager::register_remote, Autoscaler");
    for (std::size_t i = 0; i < kRemoteServices; ++i) {
      remote_.push_back(session_.services().register_remote(
          *r3, llama("llama-remote", true), i % kR3Nodes));
    }
    ml::AutoscalerConfig scaling;
    scaling.min_replicas = 2;
    scaling.max_replicas = 16;
    scaling.scale_up_outstanding = 8.0;
    scaling.scale_down_outstanding = 1.0;
    scaling.poll_interval = 0.5;
    scaling.cooldown = 5.0;
    scaler_ = std::make_unique<ml::Autoscaler>(session_, *pilot_,
                                               llama(kGroup, false), scaling);
    scaler_->start([this](bool ok) {
      if (ok) start_clients();
    });
  }

  void collect(RunRecord& record) override {
    const core::TaskManager& tasks = session_.tasks();
    record.attempted = kClients * kRequestsPerClient;
    double last_done = started_at_;
    double retries = 0.0;
    std::size_t ok = 0;
    for (const std::string& uid : clients_) {
      const core::Task& task = tasks.get(uid);
      if (task.state() != core::TaskState::done) continue;
      last_done = std::max(last_done, task.state_time(core::TaskState::done));
      ok += static_cast<std::size_t>(task.result().get_or("ok", 0).as_int());
      retries += task.result().get_or("retried", 0).as_double();
    }
    record.done = ok;
    record.failed = record.attempted - std::min(ok, record.attempted);

    const metrics::Registry& registry = session_.metrics();
    std::vector<double> rt, comm, service, inference;
    for (const char* series : {"local", "remote"}) {
      if (!registry.has_series(series)) continue;
      const metrics::RequestSeries& s = registry.series(series);
      const auto append = [](std::vector<double>& out,
                             const common::Summary& summary) {
        out.insert(out.end(), summary.samples().begin(),
                   summary.samples().end());
      };
      append(rt, s.total);
      append(comm, s.communication);
      append(service, s.service);
      append(inference, s.inference);
    }
    std::vector<double> bootstraps;
    for (const metrics::BootstrapRecord& b : registry.bootstraps()) {
      bootstraps.push_back(b.total());
    }
    record.makespan_s = last_done - started_at_;
    record.latency_p50_s = latency_quantile(rt, record.failed, 0.50);
    record.latency_p99_s = latency_quantile(rt, record.failed, 0.99);

    auto& layers = record.layers;
    const metrics::Counters& counters = session_.counters();
    layers["msg.rt_comm_p50_s"] = quantile_or_zero(comm, 0.50);
    layers["ml.bt_p50_s"] = quantile_or_zero(bootstraps, 0.50);
    layers["ml.it_p50_s"] = quantile_or_zero(inference, 0.50);
    layers["ml.rt_service_p95_s"] = quantile_or_zero(service, 0.95);
    layers["ml.client_retries"] = retries;
    layers["ml.scale_ups"] = static_cast<double>(scaler_->scale_ups());
    layers["ml.scale_downs"] = static_cast<double>(scaler_->scale_downs());
    layers["ml.served"] = counters.value("ml.served");
    layers["ml.rejected"] = counters.value("ml.rejected");
    layers["ml.batch_fill"] =
        batch_sizes_ > 0.0 ? batch_fill_ / batch_sizes_ : 0.0;

    std::uint64_t decisions = common::kFnvOffsetBasis;
    for (const auto& d : scaler_->decisions()) {
      decisions = fold_time(decisions, d.time);
      decisions = common::fnv1a(
          decisions, std::to_string(d.replicas) + (d.up ? "+" : "-"));
    }
    record.fingerprints["batch_trace_hash"] = batch_hash_;
    record.fingerprints["server_completion_hash"] = completion_hash_;
    record.fingerprints["autoscaler_decision_hash"] = decisions;
    add_critical_path(session_, started_at_, last_done, record);
  }

 private:
  void start_clients() {
    started_at_ = session_.now();
    auto scope = spans_.scope("core.submit", "TaskManager::submit");
    std::vector<std::string> remote_endpoints;
    for (const std::string& uid : remote_) {
      remote_endpoints.push_back(session_.services().get(uid).endpoint());
    }
    const std::vector<std::string> local_endpoints = scaler_->endpoints();
    for (const ClientSpec& spec : in_->clients) {
      json::Value endpoints = json::Value::array();
      for (const std::string& e :
           spec.local ? local_endpoints : remote_endpoints) {
        endpoints.push_back(e);
      }
      core::TaskDescription task;
      task.name = "client";
      task.kind = "inference_client";
      task.cores = 1;
      task.payload = json::Value::object(
          {{"endpoints", endpoints},
           {"requests", kRequestsPerClient},
           {"concurrency", kInFlight},
           {"series", spec.local ? "local" : "remote"},
           {"balancer", "least_outstanding"},
           {"think_time", spec.think_time},
           {"max_retries", 8},
           {"retry_backoff", 0.05}});
      if (spec.local) task.payload.set("watch", kGroup);
      clients_.push_back(session_.tasks().submit(*pilot_, std::move(task)));
    }
    session_.tasks().when_done(clients_, [this](bool) { finish(); });
  }

  /// All clients are done: fingerprint the live servers' batch traces,
  /// then drain the group and the remote services so the loop ends.
  void finish() {
    for (const std::string& uid : session_.services().uids()) {
      auto* program =
          dynamic_cast<ml::InferenceProgram*>(session_.services().program(uid));
      if (program == nullptr || program->server() == nullptr) continue;
      const ml::InferenceServer& server = *program->server();
      batch_hash_ = common::fnv1a(common::fnv1a(batch_hash_, uid),
                                  server.batch_trace_hash());
      for (const std::uint32_t size : server.batch_trace()) {
        batch_fill_ += size;
        batch_sizes_ += 1.0;
      }
      completion_hash_ = common::fnv1a(common::fnv1a(completion_hash_, uid),
                                       server.completion_hash());
    }
    scaler_->stop();
    for (const std::string& uid : remote_) session_.services().stop(uid);
  }

  core::Session& session_;
  std::shared_ptr<const ServingInputs> in_;
  Spans& spans_;
  core::Pilot* pilot_ = nullptr;
  std::vector<std::string> remote_;
  std::unique_ptr<ml::Autoscaler> scaler_;
  std::vector<std::string> clients_;
  double started_at_ = 0.0;
  std::uint64_t batch_hash_ = common::kFnvOffsetBasis;
  std::uint64_t completion_hash_ = common::kFnvOffsetBasis;
  /// Running-batch sizes after each admission, summed over the servers
  /// still up when the clients finish.
  double batch_fill_ = 0.0;
  double batch_sizes_ = 0.0;
};

}  // namespace

WorkloadPlan plan_serving(std::uint64_t seed) {
  auto inputs = generate(seed);
  WorkloadPlan plan;
  plan.name = "serving";
  plan.unit = "request";
  plan.factory = [inputs](core::Session& session, Spans& spans) {
    return std::make_unique<Serving>(session, inputs, spans);
  };
  // Before run() only the group's initial replicas reach the scheduler.
  const core::ServiceDescription replica = llama(kGroup, false);
  for (int i = 0; i < 2; ++i) {
    plan.replay.push_back(
        {replica.cores, replica.gpus, replica.mem_gb, replica.priority});
  }
  plan.replay_profile = platform::delta_profile(kPilotNodes);
  return plan;
}

}  // namespace perf
