// Ablation: the multi-tenant runtime (shared dataset cache + weighted
// fair-share arbitration).
//
// Three tenants run the same graph workload over a common corpus whose
// parts are registered per-tenant under private names but shared
// content ids. Two arms:
//
// 1. Shared. One session hosts all three tenants: the first tenant to
//    touch a part pays the transfer, the others hit the warm replica
//    in the content-addressed catalog. Gate: >= 30% fewer bytes moved
//    than the isolated arm.
// 2. Isolated. Each tenant gets its own session (the pre-multi-tenant
//    deployment: one runtime per campaign) and re-transfers every part
//    it consumes.
//
// Fairness gate: at equal weights the per-tenant p95 turnaround spread
// (max/min) in the shared arm must stay <= 1.25x — fair-share keeps
// symmetric tenants symmetric even while they race for the cache.
// Determinism gate: the shared arm's full trace fingerprint (grant
// order, transfer completions, per-graph event streams) is
// bit-identical across same-seed reruns. Output:
// bench_out/ablation_tenants.{csv,json}.
//
// Usage: bench_ablation_tenants [--smoke]

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/wf/graph.hpp"
#include "ripple/wf/workflow_manager.hpp"

namespace {

using namespace ripple;

constexpr std::uint64_t kSeed = 42;

std::string to_hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

core::TaskDescription modeled(double seconds) {
  core::TaskDescription desc;
  desc.kind = "modeled";
  desc.cores = 4;
  desc.duration = common::Distribution::constant(seconds);
  return desc;
}

struct TenantsConfig {
  std::size_t tenants = 3;
  std::size_t parts = 6;            ///< distinct content ids in the corpus
  double part_bytes = 4e9;
  std::size_t graphs_per_tenant = 8;
  double task_seconds = 4.0;
};

struct ArmResult {
  double makespan = 0.0;
  double bytes_moved = 0.0;
  std::uint64_t transfers = 0;
  std::vector<double> p95_turnaround;  ///< per tenant
  std::uint64_t trace_hash = 0;
};

std::string tenant_name(std::size_t t) {
  return "tenant" + std::to_string(t);
}

std::string part_name(std::size_t t, std::size_t p) {
  return "t" + std::to_string(t) + "/part" + std::to_string(p);
}

/// Registers tenant `t`'s private names for the corpus. Content ids
/// collapse them onto shared replicas in the shared arm; in the
/// isolated arm each session only ever sees one tenant's names, so the
/// aliasing is inert and every part transfers again.
void register_corpus(core::Session& session, const TenantsConfig& config,
                     std::size_t t) {
  for (std::size_t p = 0; p < config.parts; ++p) {
    session.data().register_dataset(part_name(t, p), config.part_bytes,
                                    "archive",
                                    "cid:part" + std::to_string(p));
  }
}

/// Submits tenant `t`'s graphs and records completion turnarounds.
/// Graph g consumes parts (g % parts) and ((g + 1) % parts) — every
/// tenant sweeps the same corpus in the same order, so the workload is
/// symmetric across tenants by construction.
void submit_workload(core::Session& session, wf::WorkflowManager& workflows,
                     core::Pilot& pilot, const TenantsConfig& config,
                     std::size_t t, std::vector<double>& turnarounds,
                     std::uint64_t& graph_hash) {
  for (std::size_t g = 0; g < config.graphs_per_tenant; ++g) {
    wf::Stage stage;
    stage.name = "consume";
    stage.consumes = {part_name(t, g % config.parts),
                      part_name(t, (g + 1) % config.parts)};
    stage.tasks = {modeled(config.task_seconds)};
    wf::Graph graph("g" + std::to_string(g) + "-" + tenant_name(t));
    graph.tenant = tenant_name(t);
    graph.add(stage);
    workflows.run_graph(graph, pilot,
                        [&turnarounds, &graph_hash,
                         &session](const wf::GraphResult& r) {
                          turnarounds.push_back(session.now());
                          graph_hash =
                              common::fnv1a(graph_hash, r.graph);
                          graph_hash =
                              common::fnv1a(graph_hash, r.event_hash);
                        });
  }
}

double p95(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t index =
      static_cast<std::size_t>(0.95 * static_cast<double>(values.size()));
  return values[std::min(index, values.size() - 1)];
}

/// One session, all tenants, equal weights: the shared-cache arm.
ArmResult run_shared(const TenantsConfig& config) {
  core::Session session{core::SessionConfig{.seed = kSeed}};
  session.add_platform(platform::delta_profile(4));
  core::Pilot& pilot =
      session.submit_pilot({.platform = "delta", .nodes = 4});

  for (std::size_t t = 0; t < config.tenants; ++t) {
    session.set_tenant_weight(tenant_name(t), 1.0);
    register_corpus(session, config, t);
  }

  wf::WorkflowManager workflows(session);
  std::vector<std::vector<double>> turnarounds(config.tenants);
  std::uint64_t graph_hash = common::kFnvOffsetBasis;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    submit_workload(session, workflows, pilot, config, t, turnarounds[t],
                    graph_hash);
  }
  session.run();

  ArmResult result;
  result.makespan = session.now();
  result.bytes_moved = session.data().engine().bytes_moved();
  result.transfers = session.data().engine().transfers_completed();
  for (auto& per_tenant : turnarounds) {
    result.p95_turnaround.push_back(p95(per_tenant));
  }
  result.trace_hash = common::fnv1a(
      common::fnv1a(graph_hash, session.scheduler().grant_log_hash()),
      session.data().engine().transfers_completed());
  for (const auto& line : session.data().engine().completion_log()) {
    result.trace_hash = common::fnv1a(result.trace_hash, line);
  }
  return result;
}

/// One session per tenant: the pre-multi-tenant baseline. Makespan is
/// the slowest campaign; bytes are summed across sessions.
ArmResult run_isolated(const TenantsConfig& config) {
  ArmResult result;
  std::uint64_t graph_hash = common::kFnvOffsetBasis;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    core::Session session{core::SessionConfig{.seed = kSeed}};
    session.add_platform(platform::delta_profile(4));
    core::Pilot& pilot =
        session.submit_pilot({.platform = "delta", .nodes = 4});
    register_corpus(session, config, t);
    wf::WorkflowManager workflows(session);
    std::vector<double> turnarounds;
    submit_workload(session, workflows, pilot, config, t, turnarounds,
                    graph_hash);
    session.run();
    result.makespan = std::max(result.makespan, session.now());
    result.bytes_moved += session.data().engine().bytes_moved();
    result.transfers += session.data().engine().transfers_completed();
    result.p95_turnaround.push_back(p95(turnarounds));
  }
  result.trace_hash = graph_hash;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);

  TenantsConfig config;
  if (smoke) config = {3, 3, 2e9, 3, 2.0};

  const ArmResult shared = run_shared(config);
  const ArmResult shared_rerun = run_shared(config);
  const ArmResult isolated = run_isolated(config);
  const ArmResult isolated_rerun = run_isolated(config);

  const double bytes_saved =
      isolated.bytes_moved > 0.0
          ? 1.0 - shared.bytes_moved / isolated.bytes_moved
          : 0.0;
  const auto [min_it, max_it] =
      std::minmax_element(shared.p95_turnaround.begin(),
                          shared.p95_turnaround.end());
  const double fairness_spread = *min_it > 0.0 ? *max_it / *min_it : 0.0;

  bool pass = true;
  if (shared.trace_hash != shared_rerun.trace_hash ||
      shared.makespan != shared_rerun.makespan) {
    std::cerr << "FAIL: same-seed shared-arm rerun diverged\n";
    pass = false;
  }
  if (isolated.trace_hash != isolated_rerun.trace_hash) {
    std::cerr << "FAIL: same-seed isolated-arm rerun diverged\n";
    pass = false;
  }
  if (bytes_saved < 0.30) {
    std::cerr << "FAIL: shared cache saved only "
              << strutil::format_fixed(100.0 * bytes_saved, 1)
              << "% of bytes vs isolated, target >= 30%\n";
    pass = false;
  }
  if (fairness_spread > 1.25) {
    std::cerr << "FAIL: p95 turnaround spread "
              << strutil::format_fixed(fairness_spread, 3)
              << "x at equal weights, target <= 1.25x\n";
    pass = false;
  }

  metrics::Table table({"arm", "makespan_s", "bytes_moved_gb", "transfers",
                        "p95_spread", "trace_hash"});
  table.add_row({"shared", strutil::format_fixed(shared.makespan, 2),
                 strutil::format_fixed(shared.bytes_moved / 1e9, 1),
                 std::to_string(shared.transfers),
                 strutil::format_fixed(fairness_spread, 3),
                 to_hex(shared.trace_hash)});
  table.add_row({"isolated", strutil::format_fixed(isolated.makespan, 2),
                 strutil::format_fixed(isolated.bytes_moved / 1e9, 1),
                 std::to_string(isolated.transfers), "-",
                 to_hex(isolated.trace_hash)});

  std::cout << metrics::banner(
      "Multi-tenant runtime (shared content-addressed cache vs isolated "
      "sessions)");
  std::cout << table.to_string();
  std::cout << "\nbytes_saved="
            << strutil::format_fixed(100.0 * bytes_saved, 1)
            << "% (gate >= 30%)  fairness_spread="
            << strutil::format_fixed(fairness_spread, 3)
            << "x (gate <= 1.25x)\n";

  table.write_csv(bench::output_dir() + "/ablation_tenants.csv");

  json::Value report = json::Value::object();
  report.set("smoke", smoke);
  report.set("tenants", config.tenants);
  report.set("parts", config.parts);
  report.set("graphs_per_tenant", config.graphs_per_tenant);
  report.set("shared_bytes", shared.bytes_moved);
  report.set("isolated_bytes", isolated.bytes_moved);
  report.set("bytes_saved_fraction", bytes_saved);
  report.set("shared_makespan", shared.makespan);
  report.set("isolated_makespan", isolated.makespan);
  report.set("fairness_spread", fairness_spread);
  report.set("trace_hash", to_hex(shared.trace_hash));
  std::ofstream file(bench::output_dir() + "/ablation_tenants.json");
  file << report.dump(2) << "\n";

  std::cout << (pass ? "\nPASS" : "\nFAIL")
            << ": shared cache cuts bytes >= 30%, equal-weight p95 spread "
               "<= 1.25x, same-seed traces bit-identical across reruns\n";
  return pass ? 0 : 1;
}
