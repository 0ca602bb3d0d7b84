// Ablation: contention-aware data scheduling.
//
// Two experiments, both bit-reproducible across same-seed reruns:
//
// 1. Multi-source striping. One 30 GB dataset with replicas in three
//    zones, disjoint 1 GB/s links to the destination. A single-source
//    transfer rides one link; a striped transfer splits the bytes
//    across all three and commits when the last stripe lands. Expected:
//    striping >= 1.5x faster (ideal here is 3x).
//
// 2. Data-aware backfill. One 64-core node runs 32-core analysis jobs
//    against a 20 GB store that holds four 4 GB "hot" shards; six 4 GB
//    "cold" shards live in the lab zone. Cold jobs are submitted ahead
//    of hot ones. The data-blind scheduler grants in submission order:
//    cold stage-ins evict every hot shard before its reader runs, so
//    the hot jobs re-fetch what was already local. The data-aware
//    scheduler (Scheduler::set_locality_oracle, wired by Session to
//    the replica catalog) grants resident-input jobs first within the
//    priority class. Expected: strictly fewer bytes over the WAN and
//    no worse makespan.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ripple/data/transfer_engine.hpp"

namespace {

using namespace ripple;

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Experiment 1: striped vs single-source transfer time
// ---------------------------------------------------------------------------

struct StripeResult {
  double seconds = 0.0;
  std::uint64_t stripes = 0;
  bool ok = false;
};

StripeResult run_transfer(bool striped, double gigabytes,
                          std::uint64_t seed) {
  sim::EventLoop loop;
  common::Rng rng(seed);
  data::TransferEngine engine(loop, rng);
  engine.set_setup_latency(common::Distribution::constant(0.5));
  engine.set_bandwidth("r1", "hub", 1e9);
  engine.set_bandwidth("r2", "hub", 1e9);
  engine.set_bandwidth("r3", "hub", 1e9);

  StripeResult result;
  const auto on_done = [&](bool ok, sim::Duration elapsed) {
    result.ok = ok;
    result.seconds = elapsed;
  };
  engine.transfer("payload",
                  striped ? std::vector<std::string>{"r1", "r2", "r3"}
                          : std::vector<std::string>{"r1"},
                  "hub", gigabytes * 1e9, on_done);
  loop.run();
  result.stripes = engine.stripes_started();
  return result;
}

// ---------------------------------------------------------------------------
// Experiment 2: data-aware vs data-blind backfill
// ---------------------------------------------------------------------------

struct BackfillResult {
  double bytes_moved_gb = 0.0;
  double makespan = 0.0;
  std::uint64_t evictions = 0;
  std::size_t jobs_done = 0;
  std::uint64_t trace_hash = 0;
};

BackfillResult run_backfill(bool data_aware, std::size_t hot,
                            std::size_t cold, std::uint64_t seed) {
  core::Session session({.seed = seed});
  session.add_platform(platform::delta_profile(1));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 1});
  if (!data_aware) session.scheduler().set_locality_oracle({});

  session.runtime().network().register_host("lab:x", "lab");
  session.data().add_store("delta", 4e9 * static_cast<double>(hot + 1));
  session.data().set_bandwidth("lab", "delta", 1e9);
  session.data().set_setup_latency(common::Distribution::constant(0.2));
  // Hot shards are resident (with a lab replica to re-fetch from once
  // evicted); cold shards must cross the WAN.
  std::vector<std::string> jobs;
  for (std::size_t i = 0; i < hot; ++i) {
    const std::string name = "hot-" + std::to_string(i);
    session.data().register_dataset(name, 4e9, "delta");
    session.data().register_dataset(name, 4e9, "lab");
  }
  for (std::size_t i = 0; i < cold; ++i) {
    const std::string name = "cold-" + std::to_string(i);
    session.data().register_dataset(name, 4e9, "lab");
  }
  // Cold readers enter the queue first: a data-blind scan services
  // them first and their stage-ins evict the hot shards before the
  // hot readers run.
  for (std::size_t i = 0; i < cold; ++i) {
    jobs.push_back("cold-" + std::to_string(i));
  }
  for (std::size_t i = 0; i < hot; ++i) {
    jobs.push_back("hot-" + std::to_string(i));
  }

  BackfillResult result;
  auto& sched = session.scheduler();
  // A minimal task model driven straight through the scheduler: a
  // granted job stages its shard into the pilot zone (instant when
  // resident), computes 5 s, and releases its slot.
  for (const std::string& dataset : jobs) {
    core::ScheduleRequest request;
    request.uid = dataset + "-job";
    request.cores = 32;
    request.input_datasets = {dataset};
    request.input_bytes =
        session.data().bytes_required({dataset}, "delta");
    request.granted = [&session, &sched, &pilot, &result, dataset](
                          platform::Slot slot, platform::Node*) {
      const auto compute = [&session, &sched, &pilot, &result,
                            slot = std::move(slot)] {
        session.loop().call_after(5.0, [&sched, &pilot, &result, slot] {
          ++result.jobs_done;
          sched.release(pilot.uid(), slot);
        });
      };
      if (session.data().available_in(dataset, "delta")) {
        session.data().catalog().touch(dataset, "delta");
        compute();
      } else {
        session.data().stage({{dataset, "delta"}},
                             [compute](bool ok, const std::string&) {
                               if (ok) compute();
                             });
      }
    };
    sched.submit(pilot.uid(), std::move(request));
  }
  session.run();

  result.bytes_moved_gb = session.data().bytes_moved() / 1e9;
  result.makespan = session.now();
  result.evictions = session.data().catalog().evictions();
  std::uint64_t hash = 14695981039346656037ull;
  for (const auto& name : session.data().engine().completion_log()) {
    hash = fnv1a(hash, name);
  }
  for (const auto& name : session.data().catalog().eviction_log()) {
    hash = fnv1a(hash, name);
  }
  hash = fnv1a(hash, strutil::format_fixed(result.makespan, 9));
  result.trace_hash = hash;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bench;
  const bool smoke = smoke_mode(argc, argv);
  const double gigabytes = smoke ? 12.0 : 30.0;
  const std::size_t hot = 4;
  const std::size_t cold = smoke ? 4 : 6;
  const std::uint64_t seed = 505;

  std::cout << "Ablation: contention-aware data scheduling\n";
  bool pass = true;

  // --- striping ------------------------------------------------------------
  const StripeResult single = run_transfer(false, gigabytes, seed);
  const StripeResult striped = run_transfer(true, gigabytes, seed);
  const StripeResult striped_rerun = run_transfer(true, gigabytes, seed);

  metrics::Table stripe_table(
      {"sources", "stripes", "transfer_s", "speedup", "ok"});
  stripe_table.add_row({"single", std::to_string(single.stripes),
                        strutil::format_fixed(single.seconds, 2), "1.00",
                        single.ok ? "yes" : "NO"});
  stripe_table.add_row(
      {"striped-3", std::to_string(striped.stripes),
       strutil::format_fixed(striped.seconds, 2),
       strutil::format_fixed(single.seconds / striped.seconds, 2),
       striped.ok ? "yes" : "NO"});
  std::cout << metrics::banner("Multi-source striping (3 replicas, "
                               "disjoint 1 GB/s links)");
  std::cout << stripe_table.to_string();
  stripe_table.write_csv(output_dir() + "/ablation_datasched_striping.csv");
  stripe_table.write_json(output_dir() +
                          "/ablation_datasched_striping.json");

  if (!(single.ok && striped.ok)) {
    std::cout << "FAIL: a transfer failed\n";
    pass = false;
  }
  if (!(single.seconds >= 1.5 * striped.seconds)) {
    std::cout << "FAIL: striping is not >= 1.5x faster ("
              << single.seconds << " vs " << striped.seconds << ")\n";
    pass = false;
  }
  if (striped_rerun.seconds != striped.seconds) {
    std::cout << "FAIL: same-seed striped rerun diverged\n";
    pass = false;
  }

  // --- data-aware backfill -------------------------------------------------
  const BackfillResult blind = run_backfill(false, hot, cold, seed);
  const BackfillResult aware = run_backfill(true, hot, cold, seed);
  const BackfillResult aware_rerun = run_backfill(true, hot, cold, seed);

  metrics::Table backfill_table({"backfill", "bytes_moved_gb", "evictions",
                                 "makespan_s", "jobs"});
  backfill_table.add_row(
      {"data-blind", strutil::format_fixed(blind.bytes_moved_gb, 2),
       std::to_string(blind.evictions),
       strutil::format_fixed(blind.makespan, 1),
       std::to_string(blind.jobs_done)});
  backfill_table.add_row(
      {"data-aware", strutil::format_fixed(aware.bytes_moved_gb, 2),
       std::to_string(aware.evictions),
       strutil::format_fixed(aware.makespan, 1),
       std::to_string(aware.jobs_done)});
  std::cout << metrics::banner("Data-aware backfill (cold queue ahead of "
                               "resident readers, finite store)");
  std::cout << backfill_table.to_string();
  backfill_table.write_csv(output_dir() +
                           "/ablation_datasched_backfill.csv");
  backfill_table.write_json(output_dir() +
                            "/ablation_datasched_backfill.json");

  std::cout << "\nExpected: the data-blind grant order lets cold stage-ins "
               "evict resident shards before their readers run, paying "
               "re-fetches the data-aware order never needs.\n";

  if (blind.jobs_done != hot + cold || aware.jobs_done != hot + cold) {
    std::cout << "FAIL: not every job completed\n";
    pass = false;
  }
  if (!(aware.bytes_moved_gb < blind.bytes_moved_gb)) {
    std::cout << "FAIL: data-aware backfill did not move strictly fewer "
                 "bytes\n";
    pass = false;
  }
  if (!(aware.makespan <= blind.makespan)) {
    std::cout << "FAIL: data-aware makespan exceeds data-blind\n";
    pass = false;
  }
  if (aware_rerun.trace_hash != aware.trace_hash) {
    std::cout << "FAIL: same-seed backfill rerun diverged\n";
    pass = false;
  }

  std::cout << (pass ? "\nPASS" : "\nFAIL")
            << ": striping "
            << strutil::format_fixed(single.seconds / striped.seconds, 2)
            << "x faster; data-aware backfill saved "
            << strutil::format_fixed(
                   blind.bytes_moved_gb - aware.bytes_moved_gb, 2)
            << " GB over the WAN\n";
  return pass ? 0 : 1;
}
