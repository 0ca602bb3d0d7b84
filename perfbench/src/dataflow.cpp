// dataflow: multi-tenant DAG workflows over a shared corpus.
//
// Three tenants (fair-share weights 2:1:1) each submit diamond
// wf::Graphs on a seeded open-loop arrival schedule in simulated time:
// `src` reads one corpus part, four branches each read a part and write
// a 1 GB intermediate, and `sink` reads the four intermediates and
// writes a 2 GB result out to `archive`. The corpus (24 x 4 GB parts in
// `archive`, half also in `lab`) is registered per tenant under shared
// content ids; Delta and Frontier pilots have finite stores and nodes
// are placed by locality. The data plane, the placement advisor and the
// wf frontier engine do most of the work; the scheduler sees a shallow
// queue on its fair-share pass and ml does nothing.

#include <algorithm>
#include <array>
#include <memory>

#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/wf/graph.hpp"
#include "ripple/wf/workflow_manager.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

constexpr std::size_t kTenants = 3;
constexpr double kWeights[kTenants] = {2.0, 1.0, 1.0};
constexpr std::size_t kGraphsPerTenant = 400;
/// Mean gap between one tenant's arrivals (simulated seconds): a rate
/// the runtime sustains without a growing backlog.
constexpr double kMeanInterarrival = 6.0;
constexpr std::size_t kParts = 24;
constexpr double kPartBytes = 4e9;
constexpr double kIntermediateBytes = 1e9;
constexpr double kResultBytes = 2e9;
constexpr double kStoreBytes = 200e9;
/// Bulk bandwidth between the data zones (archive, lab) and each pilot
/// zone: 20 Gb/s, so arrival bursts congest links without a backlog.
constexpr double kDataLinkBytesPerSecond = 2.5e9;
constexpr std::size_t kPilotNodes = 8;
constexpr std::size_t kTaskCores = 8;
constexpr std::size_t kBranches = 4;
/// Bytes every graph declares it reads: src + branch parts + the sink's
/// intermediates (the numerator of data.read_reuse).
constexpr double kDeclaredReadBytes =
    (1 + kBranches) * kPartBytes + kBranches * kIntermediateBytes;

struct GraphSpec {
  std::size_t tenant = 0;
  std::size_t index = 0;  ///< per-tenant graph number
  double arrival = 0.0;   ///< scheduled arrival (simulated seconds)
  std::size_t src_part = 0;
  std::array<std::size_t, kBranches> branch_parts{};
  std::array<double, kBranches + 2> seconds{};  ///< src, branches, sink
};

struct DataflowInputs {
  std::vector<GraphSpec> graphs;  ///< sorted by (arrival, tenant)
};

/// Each tenant's arrivals are a Poisson process conditioned on its last
/// arrival landing at exactly kGraphsPerTenant * kMeanInterarrival, so
/// every seed offers the same load over the same window.
std::shared_ptr<const DataflowInputs> generate(std::uint64_t seed) {
  common::Rng rng = common::Rng(seed).fork("dataflow.inputs");
  auto inputs = std::make_shared<DataflowInputs>();
  for (std::size_t t = 0; t < kTenants; ++t) {
    common::Rng tenant_rng = rng.fork("tenant" + std::to_string(t));
    std::vector<double> gaps(kGraphsPerTenant);
    double total = 0.0;
    for (double& gap : gaps) total += gap = tenant_rng.exponential(1.0);
    const double scale =
        kMeanInterarrival * static_cast<double>(kGraphsPerTenant) / total;
    double clock = 0.0;
    for (std::size_t g = 0; g < kGraphsPerTenant; ++g) {
      GraphSpec spec;
      spec.tenant = t;
      spec.index = g;
      clock += gaps[g] * scale;
      spec.arrival = clock;
      const auto part = [&] {
        return static_cast<std::size_t>(
            tenant_rng.uniform_int(0, static_cast<std::int64_t>(kParts) - 1));
      };
      spec.src_part = part();
      for (auto& p : spec.branch_parts) p = part();
      spec.seconds[0] = tenant_rng.lognormal(5.0, 0.3);
      for (std::size_t b = 1; b <= kBranches; ++b) {
        spec.seconds[b] = tenant_rng.lognormal(15.0, 0.3);
      }
      spec.seconds[kBranches + 1] = tenant_rng.lognormal(8.0, 0.3);
      inputs->graphs.push_back(spec);
    }
  }
  std::sort(inputs->graphs.begin(), inputs->graphs.end(),
            [](const GraphSpec& a, const GraphSpec& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.tenant < b.tenant;
            });
  return inputs;
}

std::string tenant_name(std::size_t t) { return "t" + std::to_string(t); }

std::string part_name(std::size_t t, std::size_t p) {
  return tenant_name(t) + "/part" + std::to_string(p);
}

core::TaskDescription modeled(double seconds) {
  core::TaskDescription task;
  task.kind = "modeled";
  task.cores = kTaskCores;
  task.duration = common::Distribution::constant(seconds);
  return task;
}

/// The diamond: src -> branch[0..3] -> sink.
wf::Graph build_graph(const GraphSpec& spec) {
  const std::string prefix =
      tenant_name(spec.tenant) + "/g" + std::to_string(spec.index);
  wf::Graph graph(prefix);
  graph.tenant = tenant_name(spec.tenant);
  graph.placement = wf::Placement::locality;

  wf::Stage src;
  src.name = "src";
  src.consumes = {part_name(spec.tenant, spec.src_part)};
  src.tasks = {modeled(spec.seconds[0])};
  graph.add(std::move(src));

  wf::Stage sink;
  sink.name = "sink";
  const std::string result = prefix + "/result";
  for (std::size_t b = 0; b < kBranches; ++b) {
    const std::string mid = prefix + "/mid" + std::to_string(b);
    wf::Stage branch;
    branch.name = "b" + std::to_string(b);
    branch.consumes = {part_name(spec.tenant, spec.branch_parts[b])};
    branch.produces = {mid};
    core::TaskDescription task = modeled(spec.seconds[b + 1]);
    task.staging = {core::StagingDirective::out(mid)};
    task.payload.set("output_bytes", kIntermediateBytes);
    branch.tasks = {std::move(task)};
    graph.add(std::move(branch));
    sink.consumes.push_back(mid);
  }
  core::TaskDescription task = modeled(spec.seconds[kBranches + 1]);
  task.staging = {core::StagingDirective::out(result, "archive")};
  task.payload.set("output_bytes", kResultBytes);
  sink.tasks = {std::move(task)};
  sink.produces = {result};
  graph.add(std::move(sink));

  for (std::size_t b = 0; b < kBranches; ++b) {
    const std::string branch = "b" + std::to_string(b);
    graph.depend("src", branch);
    graph.depend(branch, "sink");
  }
  return graph;
}

class Dataflow final : public Workload {
 public:
  Dataflow(core::Session& session, std::shared_ptr<const DataflowInputs> in,
           Spans& spans)
      : session_(session), in_(std::move(in)), spans_(spans) {}

  void setup(Spans& spans) override {
    {
      auto scope = spans.scope("platform.setup",
                               "Session::add_platform+submit_pilot");
      session_.add_platform(platform::delta_profile(kPilotNodes));
      session_.add_platform(platform::frontier_profile(kPilotNodes));
      pilots_ = {
          &session_.submit_pilot({.platform = "delta", .nodes = kPilotNodes}),
          &session_.submit_pilot(
              {.platform = "frontier", .nodes = kPilotNodes})};
    }
    {
      auto scope = spans.scope(
          "data.setup",
          "DataManager::add_store+set_bandwidth+register_dataset");
      for (const char* zone : {"delta", "frontier"}) {
        session_.data().add_store(zone, kStoreBytes);
        session_.data().set_bandwidth("archive", zone, kDataLinkBytesPerSecond);
        session_.data().set_bandwidth("lab", zone, kDataLinkBytesPerSecond);
      }
      for (std::size_t t = 0; t < kTenants; ++t) {
        for (std::size_t p = 0; p < kParts; ++p) {
          const std::string cid = "cid:part" + std::to_string(p);
          session_.data().register_dataset(part_name(t, p), kPartBytes,
                                           "archive", cid);
          if (p % 2 == 0) {
            session_.data().register_dataset(part_name(t, p), kPartBytes,
                                             "lab", cid);
          }
        }
      }
    }
    {
      auto scope = spans.scope("core.setup", "Session::set_tenant_weight");
      for (std::size_t t = 0; t < kTenants; ++t) {
        session_.set_tenant_weight(tenant_name(t), kWeights[t]);
      }
    }
    {
      auto scope = spans.scope("wf.setup", "WorkflowManager()");
      workflows_ = std::make_unique<wf::WorkflowManager>(session_);
    }
    auto scope = spans.scope("core.submit", "EventLoop::call_at");
    schedule_arrival(0);
  }

  void collect(RunRecord& record) override {
    std::vector<double> latencies;
    latencies.reserve(done_.size());
    std::uint64_t completions = common::kFnvOffsetBasis;
    const double first_arrival =
        in_->graphs.empty() ? 0.0 : in_->graphs[0].arrival;
    double last_done = first_arrival;
    record.attempted = in_->graphs.size();
    for (const Completion& c : done_) {
      completions = fold_time(common::fnv1a(completions, c.graph), c.finished);
      last_done = std::max(last_done, c.finished);
      if (!c.ok) {
        ++record.failed;
        continue;
      }
      ++record.done;
      latencies.push_back(c.finished - c.arrival);
    }
    std::vector<double> node_seconds;
    std::uint64_t events = common::kFnvOffsetBasis;
    double retried = 0.0;
    for (const auto& [name, result] : workflows_->graph_results()) {
      events = common::fnv1a(common::fnv1a(events, name), result.event_hash);
      node_seconds.insert(node_seconds.end(), result.node_durations.begin(),
                          result.node_durations.end());
      retried += static_cast<double>(result.tasks_retried);
    }
    // Graphs that never reported count as failed units.
    record.failed +=
        record.attempted - std::min(record.attempted, done_.size());
    record.makespan_s = last_done - first_arrival;
    record.latency_p50_s = latency_quantile(latencies, record.failed, 0.50);
    record.latency_p99_s = latency_quantile(latencies, record.failed, 0.99);
    record.layers["wf.nodes_done"] = static_cast<double>(node_seconds.size());
    record.layers["wf.node_p50_s"] = quantile_or_zero(node_seconds, 0.50);
    record.layers["wf.tasks_retried"] = retried;
    const double moved = session_.data().engine().bytes_moved();
    record.layers["data.read_reuse"] =
        moved > 0.0
            ? kDeclaredReadBytes * static_cast<double>(record.done) / moved
            : 0.0;
    record.fingerprints["graph_event_hash"] = events;
    record.fingerprints["completion_hash"] = completions;
    add_critical_path(session_, first_arrival, last_done, record);
  }

 private:
  struct Completion {
    std::string graph;
    double arrival = 0.0;
    double finished = 0.0;
    bool ok = false;
  };

  /// Open loop: each arrival schedules the next one at its exact
  /// scheduled time, whatever the runtime is doing.
  void schedule_arrival(std::size_t i) {
    if (i >= in_->graphs.size()) return;
    session_.loop().call_at(in_->graphs[i].arrival, [this, i] {
      schedule_arrival(i + 1);
      submit(in_->graphs[i]);
    });
  }

  void submit(const GraphSpec& spec) {
    wf::Graph graph = build_graph(spec);
    const double arrival = spec.arrival;
    auto on_done = [this, arrival](const wf::GraphResult& result) {
      done_.push_back(
          {result.graph, arrival, session_.now(), result.ok});
    };
    auto scope = spans_.scope("wf.submit", "WorkflowManager::run_graph");
    workflows_->run_graph(std::move(graph), pilots_, on_done);
  }

  core::Session& session_;
  std::shared_ptr<const DataflowInputs> in_;
  Spans& spans_;
  std::vector<core::Pilot*> pilots_;
  std::unique_ptr<wf::WorkflowManager> workflows_;
  std::vector<Completion> done_;
};

}  // namespace

WorkloadPlan plan_dataflow(std::uint64_t seed) {
  auto inputs = generate(seed);
  WorkloadPlan plan;
  plan.name = "dataflow";
  plan.unit = "graph";
  plan.factory = [inputs](core::Session& session, Spans& spans) {
    return std::make_unique<Dataflow>(session, inputs, spans);
  };
  // Graphs arrive during the run: there is no pre-run scheduler batch.
  return plan;
}

}  // namespace perf
