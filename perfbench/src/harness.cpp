#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ripple/common/hash.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/core/failure_coordinator.hpp"
#include "ripple/metrics/critical_path.hpp"

namespace perf {

// --- spans -------------------------------------------------------------------

Spans::Spans() : origin_(std::chrono::steady_clock::now()) {}

double Spans::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Spans::Scope::Scope(Spans& spans, std::string name, std::string call)
    : spans_(spans), index_(static_cast<int>(spans.spans_.size())) {
  spans_.spans_.push_back(
      HostSpan{std::move(name), std::move(call), spans_.now(), -1.0,
               spans_.open_});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  HostSpan& span = spans_.spans_[static_cast<std::size_t>(index_)];
  span.end = spans_.now();
  spans_.open_ = span.parent;
}

double Spans::total(const std::string& name) const {
  double sum = 0.0;
  for (const HostSpan& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

json::Value Spans::to_json() const {
  json::Value out = json::Value::array();
  for (const HostSpan& span : spans_) {
    out.push_back(json::Value::object({{"name", span.name},
                                       {"call", span.call},
                                       {"start", span.start},
                                       {"end", span.end},
                                       {"parent", span.parent}}));
  }
  return out;
}

// --- helpers -----------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double latency_quantile(std::vector<double> samples, std::size_t failed,
                        double q) {
  samples.insert(samples.end(), failed, kMissedLatency);
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return common::quantile_sorted(samples, q);
}

double quantile_or_zero(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return common::quantile_sorted(samples, q);
}

std::uint64_t fold_time(std::uint64_t hash, double seconds) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &seconds, sizeof bits);
  return common::fnv1a(hash, bits);
}

std::string hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

void add_critical_path(core::Session& session, double begin, double end,
                       RunRecord& record) {
  double queue = 0.0, data = 0.0, compute = 0.0, recovery = 0.0, other = 0.0;
  if (session.tracer().enabled() && end > begin) {
    const metrics::Breakdown cp =
        metrics::critical_path(session.tracer(), begin, end);
    const double window = end - begin;
    queue = cp.queue_wait / window;
    data = cp.data_wait / window;
    compute = cp.compute / window;
    recovery = cp.recovery / window;
    other = cp.other / window;
  }
  record.layers["metrics.cp.queue_wait_frac"] = queue;
  record.layers["metrics.cp.data_wait_frac"] = data;
  record.layers["metrics.cp.compute_frac"] = compute;
  record.layers["metrics.cp.recovery_frac"] = recovery;
  record.layers["metrics.cp.other_frac"] = other;
}

namespace {

double ratio_or_zero(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Session-wide per-layer values, fingerprints and drain checks that
/// every workload reports the same way.
void collect_session(core::Session& session, RunRecord& record) {
  auto& layers = record.layers;
  auto& loop = session.loop();
  layers["sim.events"] = static_cast<double>(loop.events_processed());
  layers["sim.peak_pending"] = static_cast<double>(loop.peak_pending());

  layers["msg.sent"] = static_cast<double>(session.runtime().router().sent());
  layers["msg.published"] =
      static_cast<double>(session.runtime().pubsub().published());

  core::Scheduler& scheduler = session.scheduler();
  layers["core.sched.grants"] =
      static_cast<double>(scheduler.granted_total());
  layers["core.sched.wait_p50_s"] =
      quantile_or_zero(scheduler.wait_times().samples(), 0.50);
  layers["core.sched.wait_p95_s"] =
      quantile_or_zero(scheduler.wait_times().samples(), 0.95);
  double peak_waiting = 0.0;
  for (const auto& sample : session.counters().samples()) {
    if (sample.name == "sched.waiting") {
      peak_waiting = std::max(peak_waiting, sample.value);
    }
  }
  layers["core.sched.peak_waiting"] = peak_waiting;

  core::TaskManager& tasks = session.tasks();
  layers["core.tasks.restarts"] =
      static_cast<double>(tasks.restarts_total());
  layers["core.tasks.spec_useful"] =
      ratio_or_zero(static_cast<double>(tasks.speculation_wins()),
                    static_cast<double>(tasks.speculations()));
  const auto& injector = session.failures().injector();
  layers["core.faults.injected"] =
      static_cast<double>(injector.event_log().size());
  layers["core.exec.launches"] =
      static_cast<double>(session.executor().launches());

  core::DataManager& data = session.data();
  const data::TransferEngine& engine = data.engine();
  layers["data.transfers"] = static_cast<double>(engine.transfers_started());
  layers["data.transfers_failed"] =
      static_cast<double>(engine.transfers_failed());
  layers["data.retries"] = static_cast<double>(engine.retries());
  layers["data.cancelled"] = static_cast<double>(engine.transfers_cancelled());
  layers["data.stripes"] = static_cast<double>(engine.stripes_started());
  layers["data.evictions"] = static_cast<double>(data.catalog().evictions());
  layers["data.transfer_p50_s"] =
      quantile_or_zero(engine.transfer_times().samples(), 0.50);
  layers["data.transfer_p95_s"] =
      quantile_or_zero(engine.transfer_times().samples(), 0.95);
  layers["data.prefetch_useful"] =
      ratio_or_zero(static_cast<double>(data.prefetches_completed()),
                    static_cast<double>(data.prefetches_started()));
  layers["data.bytes_moved_gb"] = engine.bytes_moved() / 1e9;

  layers["metrics.spans"] =
      static_cast<double>(session.tracer().spans().size());
  // Layers only some workloads exercise read 0 where they did no work.
  for (const char* name :
       {"msg.rt_comm_p50_s", "data.read_reuse", "wf.nodes_done",
        "wf.node_p50_s", "wf.tasks_retried", "ml.bt_p50_s", "ml.it_p50_s",
        "ml.rt_service_p95_s", "ml.served", "ml.rejected", "ml.client_retries",
        "ml.batch_fill", "ml.scale_ups", "ml.scale_downs"}) {
    layers.emplace(name, 0.0);
  }

  record.fingerprints["grant_log_hash"] = scheduler.grant_log_hash();
  record.fingerprints["recovery_log_hash"] = tasks.recovery_log_hash();
  record.fingerprints["fault_log_hash"] = injector.event_log_hash();
  record.fingerprints["transfer_completion_hash"] = engine.completion_hash();
  std::uint64_t evictions = common::kFnvOffsetBasis;
  for (const std::string& line : data.catalog().eviction_log()) {
    evictions = common::fnv1a(evictions, line);
  }
  record.fingerprints["eviction_log_hash"] = evictions;

  record.checks["units_accounted"] =
      record.attempted > 0 && record.done + record.failed == record.attempted;
  record.checks["scheduler_drained"] = scheduler.waiting_total() == 0;
  record.checks["transfers_drained"] = engine.live() == 0;
  if (session.tracer().enabled()) {
    record.checks["spans_closed"] = session.tracer().open_spans() == 0;
  }
}

}  // namespace

HostRecord drive(const WorkloadFactory& factory, std::uint64_t seed,
                 bool traced, Spans& spans, RunRecord& record) {
  const core::SessionConfig config{.seed = seed, .tracing = traced};
  HostRecord host;

  const double start = spans.now();
  std::unique_ptr<core::Session> session;
  {
    auto scope = spans.scope("core.setup", "Session::Session");
    session = std::make_unique<core::Session>(config);
  }
  std::unique_ptr<Workload> workload = factory(*session, spans);
  workload->setup(spans);
  const double run_start = spans.now();
  host.setup_s.push_back(run_start - start);
  {
    auto scope = spans.scope("sim.run", "Session::run");
    session->run();
  }
  const double run_end = spans.now();
  host.run_s = run_end - run_start;

  {
    auto scope = spans.scope("bench.collect", "public getters of every layer");
    workload->collect(record);
    collect_session(*session, record);
  }

  const double teardown_start = spans.now();
  {
    auto scope = spans.scope("core.teardown", "~Session");
    workload.reset();
    session.reset();
  }
  host.wall_s = (run_end - start) + (spans.now() - teardown_start);
  host.peak_rss_mb = peak_rss_mb();

  // Extra set-ups for a steadier setup_s; their spans are not kept.
  for (int i = 1; i < kSetups; ++i) {
    Spans scratch;
    const double t0 = scratch.now();
    auto again = std::make_unique<core::Session>(config);
    auto repeat = factory(*again, scratch);
    repeat->setup(scratch);
    host.setup_s.push_back(scratch.now() - t0);
    repeat.reset();
    again.reset();
  }
  return host;
}

}  // namespace perf
