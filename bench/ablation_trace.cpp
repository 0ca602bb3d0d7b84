// Ablation: runtime-wide tracing — overhead, determinism, attribution.
//
// The datasched-style workload (hot shards resident on delta, cold
// shards staged over the WAN, 32-core 5 s analysis tasks submitted as
// one batch) runs three ways:
//
//   base  — tracing disabled (the default); the untraced baseline.
//   off   — tracing disabled again; the same configuration re-measured,
//           bounding measurement noise so the "on" gate is meaningful.
//   on    — tracing + counters + gauge sampling enabled.
//
// The three arms run interleaved, one run of each per round in all six
// orders, until every arm has run for at least 30 ms of wall time, so
// host drift and contention hit all three alike; each arm reports its
// median run.
//
// Gates, all enforced at exit:
//   1. Wall-clock overhead (median runs, small absolute epsilon):
//      off <= 2% of base, on <= 5% of base.
//   2. Observation only: the traced run's sim makespan and jobs-done
//      equal the untraced run's bit for bit.
//   3. Determinism: the span-log FNV hash is identical across same-seed
//      reruns.
//   4. Attribution: the CriticalPath buckets sum to the measured
//      makespan within 1%.
//   5. Artifact: the Chrome trace JSON round-trips through
//      common::json, and bench_out/ablation_trace.trace.json is
//      written for CI upload (load it in https://ui.perfetto.dev).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/metrics/chrome_trace.hpp"
#include "ripple/metrics/critical_path.hpp"

namespace {

using namespace ripple;

struct TraceRun {
  double makespan = 0.0;  ///< from the completion callback, not now()
  std::size_t jobs_done = 0;
  std::uint64_t span_hash = 0;
  std::size_t spans = 0;
  std::size_t samples = 0;
  double wall_ms = 0.0;
  bool round_trip_ok = true;
  metrics::Breakdown breakdown;
};

/// One full workload, traced or not. Writes the Chrome trace artifact
/// when `trace_path` is non-empty.
TraceRun run_case(bool tracing, std::size_t hot, std::size_t cold,
                  std::uint64_t seed, const std::string& trace_path = "") {
  const auto wall_begin = std::chrono::steady_clock::now();
  core::Session session(
      {.seed = seed, .tracing = tracing, .gauge_tick = 2.0});
  session.add_platform(platform::delta_profile(4));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});

  session.runtime().network().register_host("lab:x", "lab");
  session.data().add_store("delta",
                           4e9 * static_cast<double>(hot + cold + 1));
  session.data().set_bandwidth("lab", "delta", 1e9);
  session.data().set_setup_latency(common::Distribution::constant(0.2));
  // Hot shards are resident; cold shards cross the WAN on stage-in, so
  // the trace shows real data-wait alongside queue-wait and compute.
  std::vector<std::string> datasets;
  for (std::size_t i = 0; i < cold; ++i) {
    const std::string name = "cold-" + std::to_string(i);
    session.data().register_dataset(name, 4e9, "lab");
    datasets.push_back(name);
  }
  for (std::size_t i = 0; i < hot; ++i) {
    const std::string name = "hot-" + std::to_string(i);
    session.data().register_dataset(name, 4e9, "delta");
    session.data().register_dataset(name, 4e9, "lab");
    datasets.push_back(name);
  }

  // Several readers per shard: 4 nodes fit eight 32-core jobs at once,
  // so later waves accrue real queue-wait for the critical path to
  // attribute.
  const std::size_t readers = 1 + cold / 2;
  std::vector<core::TaskDescription> batch;
  for (std::size_t r = 0; r < readers; ++r) {
    for (const std::string& dataset : datasets) {
      core::TaskDescription desc;
      desc.name = dataset + "-job" + std::to_string(r);
      desc.kind = "modeled";
      desc.cores = 32;
      desc.duration = common::Distribution::constant(5.0);
      desc.staging = {core::StagingDirective::in(dataset)};
      batch.push_back(std::move(desc));
    }
  }

  TraceRun out;
  const auto uids = session.tasks().submit_all(pilot, batch);
  session.tasks().when_done(
      uids, [&out, &session](bool) { out.makespan = session.now(); });
  session.run();
  // The overhead gate measures the run itself; trace analysis/export
  // below is post-processing a consumer pays for explicitly.
  out.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_begin)
          .count();
  out.jobs_done = session.tasks().count_in_state(core::TaskState::done);

  if (tracing) {
    out.span_hash = session.tracer().span_log_hash();
    out.spans = session.tracer().spans().size();
    out.samples = session.counters().samples().size();
    out.breakdown =
        metrics::critical_path(session.tracer(), 0.0, out.makespan);
    const json::Value doc =
        metrics::chrome_trace_json(session.tracer(), &session.counters());
    out.round_trip_ok = json::Value::parse(doc.dump()) == doc;
    if (!trace_path.empty()) {
      metrics::write_chrome_trace(trace_path, session.tracer(),
                                  &session.counters());
    }
  }
  return out;
}

/// The overhead arms: base (untraced), off (untraced again) and on.
struct Arms {
  TraceRun base;
  TraceRun off;
  TraceRun on;
  std::size_t rounds = 0;
};

/// Runs base, off and on once per round for at least `min_rounds`
/// rounds and until every arm's runs add up to `min_ms` of wall time.
/// Successive rounds take the six orders of the three arms in turn, so
/// base and off follow a traced run equally often: a run right after a
/// traced one is slower (by a quarter to a half in smoke runs on a
/// 4-vCPU x86-64 host), which must not land on one untraced arm only.
/// Each arm's wall_ms is the median of its runs; its other fields come
/// from its last run (the determinism gates hold them fixed).
Arms measure_arms(std::size_t min_rounds, double min_ms, std::size_t hot,
                  std::size_t cold, std::uint64_t seed) {
  Arms arms;
  TraceRun* runs[] = {&arms.base, &arms.off, &arms.on};
  common::Summary walls[3];
  std::size_t order[] = {0, 1, 2};
  const auto short_arm = [&] {
    for (const auto& arm : walls) {
      if (arm.sum() < min_ms) return true;
    }
    return false;
  };
  while (arms.rounds < min_rounds || short_arm()) {
    for (const std::size_t arm : order) {
      *runs[arm] = run_case(/*tracing=*/arm == 2, hot, cold, seed);
      walls[arm].add(runs[arm]->wall_ms);
    }
    std::next_permutation(std::begin(order), std::end(order));
    ++arms.rounds;
  }
  for (std::size_t arm = 0; arm < 3; ++arm) {
    runs[arm]->wall_ms = walls[arm].median();
  }
  return arms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  const bool smoke = smoke_mode(argc, argv);
  const std::size_t hot = 4;
  const std::size_t cold = smoke ? 3 : 6;
  const std::size_t min_rounds = 6;  // every order of the arms once
  const double min_arm_ms = 30.0;
  const std::uint64_t seed = 808;
  // Wall-clock gates compare medians plus a small absolute epsilon so
  // a few-ms sim does not fail on scheduler jitter alone.
  const double eps_ms = 5.0;

  std::cout << "Ablation: runtime-wide tracing\n";
  bool pass = true;

  // --- overhead ------------------------------------------------------------
  const Arms arms = measure_arms(min_rounds, min_arm_ms, hot, cold, seed);
  const TraceRun& base = arms.base;
  const TraceRun& off = arms.off;
  const TraceRun& on = arms.on;

  const auto overhead_pct = [&](double arm) {
    return 100.0 * (arm - base.wall_ms) / base.wall_ms;
  };
  metrics::Table overhead_table(
      {"tracing", "wall_ms", "overhead_pct", "spans", "samples"});
  overhead_table.add_row({"base(off)",
                          strutil::format_fixed(base.wall_ms, 3), "0.00",
                          "0", "0"});
  overhead_table.add_row({"off", strutil::format_fixed(off.wall_ms, 3),
                          strutil::format_fixed(overhead_pct(off.wall_ms), 2),
                          "0", "0"});
  overhead_table.add_row({"on", strutil::format_fixed(on.wall_ms, 3),
                          strutil::format_fixed(overhead_pct(on.wall_ms), 2),
                          std::to_string(on.spans),
                          std::to_string(on.samples)});
  std::cout << metrics::banner("Tracing overhead (median of " +
                               std::to_string(arms.rounds) +
                               " interleaved rounds)");
  std::cout << overhead_table.to_string();
  overhead_table.write_csv(output_dir() + "/ablation_trace_overhead.csv");
  overhead_table.write_json(output_dir() + "/ablation_trace_overhead.json");

  if (off.wall_ms > base.wall_ms * 1.02 + eps_ms) {
    std::cout << "FAIL: tracing-off overhead exceeds 2%\n";
    pass = false;
  }
  if (on.wall_ms > base.wall_ms * 1.05 + eps_ms) {
    std::cout << "FAIL: tracing-on overhead exceeds 5%\n";
    pass = false;
  }

  // --- observation only ----------------------------------------------------
  if (on.makespan != base.makespan || on.jobs_done != base.jobs_done) {
    std::cout << "FAIL: tracing perturbed the simulation (makespan "
              << on.makespan << " vs " << base.makespan << ")\n";
    pass = false;
  }
  if (on.spans == 0 || on.samples == 0) {
    std::cout << "FAIL: traced run produced no spans/samples\n";
    pass = false;
  }

  // --- determinism: reruns ------------------------------------------------
  const TraceRun rerun = run_case(true, hot, cold, seed);
  metrics::Table det_table({"run", "spans", "span_hash"});
  const auto hash_row = [&](const char* label, const TraceRun& run) {
    det_table.add_row(
        {label, std::to_string(run.spans), strutil::cat(run.span_hash)});
  };
  hash_row("on", on);
  hash_row("rerun", rerun);
  std::cout << metrics::banner("Span-log determinism");
  std::cout << det_table.to_string();

  if (rerun.span_hash != on.span_hash) {
    std::cout << "FAIL: same-seed rerun changed the span log\n";
    pass = false;
  }

  // --- critical-path attribution -------------------------------------------
  std::cout << metrics::banner("Critical-path attribution of the makespan");
  std::cout << on.breakdown.table().to_string();
  std::cout << "path: ";
  for (std::size_t i = 0; i < on.breakdown.path.size(); ++i) {
    std::cout << (i > 0 ? " -> " : "") << on.breakdown.path[i];
  }
  std::cout << "\n";
  on.breakdown.table().write_csv(output_dir() +
                                 "/ablation_trace_breakdown.csv");

  const double attributed = on.breakdown.total();
  if (std::abs(attributed - on.makespan) > 0.01 * on.makespan) {
    std::cout << "FAIL: breakdown sums to " << attributed
              << ", makespan is " << on.makespan << "\n";
    pass = false;
  }

  // --- artifact ------------------------------------------------------------
  const std::string trace_path = output_dir() + "/ablation_trace.trace.json";
  const TraceRun artifact = run_case(true, hot, cold, seed, trace_path);
  if (!artifact.round_trip_ok || !on.round_trip_ok) {
    std::cout << "FAIL: Chrome trace JSON does not round-trip\n";
    pass = false;
  }
  std::cout << "\ntrace artifact: " << trace_path << " ("
            << artifact.spans << " spans, " << artifact.samples
            << " counter samples)\n";

  std::cout << (pass ? "\nPASS" : "\nFAIL") << ": tracing cost "
            << strutil::format_fixed(overhead_pct(on.wall_ms), 2)
            << "% wall clock, attributed "
            << strutil::format_fixed(
                   100.0 * (attributed - on.breakdown.other) / attributed, 1)
            << "% of the makespan to traced phases\n";
  return pass ? 0 : 1;
}
