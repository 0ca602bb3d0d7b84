// Micro-benchmark of the indexed scheduler placement core.
//
// Fig.-3-style sweep over (pilots × nodes × queued requests): each point
// drives the same seeded request stream through
//  * the indexed Scheduler (capacity segment tree + balanced-tree wait
//    queue), and
//  * an in-bench reimplementation of the seed's first-fit scheduler
//    (std::deque waiting queue, O(waiting × nodes) rescan on every
//    submit and release) — the baseline this PR replaced,
// then asserts the two grant orders are bit-identical (same-seed `fifo`
// and `backfill` runs) and reports the wall-clock ratio. Output is a
// JSON array on stdout, mirrored to bench_out/micro_scheduler.json, so
// the placement-throughput trajectory is tracked from this PR onward.
//
// Usage: bench_micro_scheduler [--quick]
//   --quick drops the flagship 256-node × 10k-request points (the
//   legacy baseline alone needs tens of seconds there).

#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ripple/common/random.hpp"
#include "ripple/core/runtime.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/platform/cluster.hpp"

namespace {

using namespace ripple;
using core::SchedulerPolicy;

struct RequestSpec {
  std::string uid;
  std::size_t pilot = 0;
  std::size_t cores = 1;
  std::size_t gpus = 0;
  double mem_gb = 0.0;
  int priority = 0;
};

struct SweepPoint {
  std::size_t pilots = 1;
  std::size_t nodes = 16;
  std::size_t queued = 1000;
};

constexpr std::size_t kCoresPerNode = 64;
constexpr std::size_t kGpusPerNode = 8;
constexpr double kMemPerNode = 512.0;
constexpr std::uint64_t kSeed = 42;

/// Same-seed request stream shared by both schedulers: a heavy mix of
/// node-filling requests with smaller backfill candidates, three
/// priority classes (services over tasks over background).
std::vector<RequestSpec> make_workload(const SweepPoint& point) {
  common::Rng rng(kSeed);
  std::vector<RequestSpec> out;
  out.reserve(point.queued);
  for (std::size_t i = 0; i < point.queued; ++i) {
    RequestSpec spec;
    spec.uid = "r" + std::to_string(i);
    spec.pilot = i % point.pilots;
    const std::int64_t shape = rng.uniform_int(0, 9);
    if (shape < 7) {
      spec.cores = kCoresPerNode;  // node-filling
      spec.mem_gb = kMemPerNode;
    } else if (shape < 9) {
      spec.cores = 8;
      spec.gpus = 1;  // small GPU backfill candidate
      spec.mem_gb = 32.0;
    } else {
      spec.cores = 1;  // tiny core-only backfill candidate
      spec.mem_gb = 4.0;
    }
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    out.push_back(std::move(spec));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Legacy baseline: the seed's scheduler, verbatim semantics.
// ---------------------------------------------------------------------------

struct LegacyNode {
  std::size_t free_cores = kCoresPerNode;
  std::size_t free_gpus = kGpusPerNode;
  double free_mem = kMemPerNode;

  [[nodiscard]] bool can_fit(const RequestSpec& r) const noexcept {
    return r.cores <= free_cores && r.gpus <= free_gpus &&
           r.mem_gb <= free_mem;
  }
};

struct LegacySlot {
  std::size_t node = 0;
  std::size_t cores = 0;
  std::size_t gpus = 0;
  double mem_gb = 0.0;
};

struct LegacyWaiting {
  RequestSpec request;
  std::uint64_t sequence = 0;
};

/// One pilot of the seed scheduler: deque ordered by (priority desc,
/// sequence), first-fit rescan of all nodes for every waiting entry on
/// every submit and release.
struct LegacyPilot {
  std::vector<LegacyNode> nodes;
  std::deque<LegacyWaiting> waiting;
};

class LegacyScheduler {
 public:
  LegacyScheduler(std::size_t pilots, std::size_t nodes_per_pilot,
                  SchedulerPolicy policy)
      : policy_(policy), pilots_(pilots) {
    for (auto& pilot : pilots_) pilot.nodes.resize(nodes_per_pilot);
  }

  void submit(const RequestSpec& request) {
    LegacyPilot& pilot = pilots_[request.pilot];
    LegacyWaiting waiting{request, next_sequence_++};
    auto position = std::find_if(
        pilot.waiting.begin(), pilot.waiting.end(),
        [&](const LegacyWaiting& w) {
          return w.request.priority < waiting.request.priority;
        });
    pilot.waiting.insert(position, std::move(waiting));
    try_schedule(request.pilot);
  }

  void release(std::size_t pilot_index, const LegacySlot& slot) {
    LegacyNode& node = pilots_[pilot_index].nodes[slot.node];
    node.free_cores += slot.cores;
    node.free_gpus += slot.gpus;
    node.free_mem += slot.mem_gb;
    try_schedule(pilot_index);
  }

  /// Grant log per pilot: (uid, slot) in grant order.
  std::vector<std::vector<std::pair<std::string, LegacySlot>>> grants_ =
      {};

 private:
  void try_schedule(std::size_t pilot_index) {
    LegacyPilot& pilot = pilots_[pilot_index];
    if (grants_.size() < pilots_.size()) grants_.resize(pilots_.size());
    auto it = pilot.waiting.begin();
    while (it != pilot.waiting.end()) {
      std::size_t placed = pilot.nodes.size();
      for (std::size_t n = 0; n < pilot.nodes.size(); ++n) {
        if (pilot.nodes[n].can_fit(it->request)) {
          placed = n;
          break;
        }
      }
      if (placed == pilot.nodes.size()) {
        if (policy_ == SchedulerPolicy::fifo) return;  // head blocks
        ++it;
        continue;
      }
      LegacyNode& node = pilot.nodes[placed];
      node.free_cores -= it->request.cores;
      node.free_gpus -= it->request.gpus;
      node.free_mem -= it->request.mem_gb;
      grants_[pilot_index].emplace_back(
          it->request.uid, LegacySlot{placed, it->request.cores,
                                      it->request.gpus, it->request.mem_gb});
      it = pilot.waiting.erase(it);
    }
  }

  SchedulerPolicy policy_;
  std::vector<LegacyPilot> pilots_;
  std::uint64_t next_sequence_ = 0;
};

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

struct RunResult {
  double seconds = 0.0;
  std::size_t grants = 0;
  /// Per-pilot uid sequences, for the bit-identical comparison.
  std::vector<std::vector<std::string>> order;
};

std::size_t release_budget(const SweepPoint& point) {
  return 2 * point.pilots * point.nodes;
}

RunResult run_legacy(const SweepPoint& point,
                     const std::vector<RequestSpec>& workload,
                     SchedulerPolicy policy) {
  const auto start = std::chrono::steady_clock::now();
  LegacyScheduler scheduler(point.pilots, point.nodes, policy);
  for (const RequestSpec& request : workload) scheduler.submit(request);
  std::vector<std::size_t> released(point.pilots, 0);
  for (std::size_t r = 0; r < release_budget(point); ++r) {
    const std::size_t p = r % point.pilots;
    if (released[p] >= scheduler.grants_[p].size()) continue;
    scheduler.release(p, scheduler.grants_[p][released[p]].second);
    ++released[p];
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.order.resize(point.pilots);
  for (std::size_t p = 0; p < point.pilots; ++p) {
    for (const auto& [uid, slot] : scheduler.grants_[p]) {
      result.order[p].push_back(uid);
      ++result.grants;
    }
  }
  return result;
}

RunResult run_indexed(const SweepPoint& point,
                      const std::vector<RequestSpec>& workload,
                      SchedulerPolicy policy) {
  const auto start = std::chrono::steady_clock::now();
  core::Runtime runtime(kSeed);
  platform::PlatformProfile profile;
  profile.name = "bench";
  profile.node = platform::NodeSpec{kCoresPerNode, kGpusPerNode,
                                    kMemPerNode};
  profile.max_nodes = point.pilots * point.nodes;
  platform::Cluster cluster(runtime.loop(), runtime.network(), profile,
                            runtime.rng().fork("cluster"));
  core::Scheduler scheduler(runtime, policy);

  std::vector<std::unique_ptr<core::Pilot>> pilots;
  // Per-pilot grant log: (uid, slot) appended as callbacks fire.
  std::vector<std::vector<std::pair<std::string, platform::Slot>>> grants(
      point.pilots);
  for (std::size_t p = 0; p < point.pilots; ++p) {
    core::PilotDescription desc;
    desc.platform = profile.name;
    desc.nodes = point.nodes;
    pilots.push_back(std::make_unique<core::Pilot>(
        "pilot." + std::to_string(p), desc, &cluster));
    pilots.back()->nodes() = cluster.reserve_nodes(point.nodes);
    scheduler.add_pilot(*pilots.back());
  }

  for (const RequestSpec& spec : workload) {
    core::ScheduleRequest request;
    request.uid = spec.uid;
    request.cores = spec.cores;
    request.gpus = spec.gpus;
    request.mem_gb = spec.mem_gb;
    request.priority = spec.priority;
    const std::size_t p = spec.pilot;
    request.granted = [&grants, p, uid = spec.uid](platform::Slot slot,
                                                   platform::Node*) {
      grants[p].emplace_back(uid, std::move(slot));
    };
    scheduler.submit(pilots[p]->uid(), std::move(request));
  }
  runtime.loop().run();

  std::vector<std::size_t> released(point.pilots, 0);
  for (std::size_t r = 0; r < release_budget(point); ++r) {
    const std::size_t p = r % point.pilots;
    if (released[p] >= grants[p].size()) continue;
    scheduler.release(pilots[p]->uid(), grants[p][released[p]].second);
    ++released[p];
    runtime.loop().run();
  }
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.order.resize(point.pilots);
  for (std::size_t p = 0; p < point.pilots; ++p) {
    for (const auto& [uid, slot] : grants[p]) {
      result.order[p].push_back(uid);
      ++result.grants;
    }
  }
  return result;
}

const char* policy_name(SchedulerPolicy policy) {
  return policy == SchedulerPolicy::fifo ? "fifo" : "backfill";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<SweepPoint> sweep = {
      {1, 16, 1000},  {1, 64, 1000},  {4, 16, 1000},
      {1, 64, 10000}, {4, 64, 10000},
  };
  if (!quick) {
    sweep.push_back({1, 256, 10000});  // the acceptance point
    sweep.push_back({4, 256, 10000});
  }

  json::Value report = json::Value::array();
  bool all_identical = true;
  for (const SweepPoint& point : sweep) {
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::backfill, SchedulerPolicy::fifo}) {
      const std::vector<RequestSpec> workload = make_workload(point);
      const RunResult legacy = run_legacy(point, workload, policy);
      const RunResult indexed = run_indexed(point, workload, policy);
      const bool identical = legacy.order == indexed.order;
      all_identical = all_identical && identical;

      json::Value row = json::Value::object();
      row.set("pilots", point.pilots);
      row.set("nodes", point.nodes);
      row.set("queued", point.queued);
      row.set("policy", policy_name(policy));
      row.set("legacy_s", legacy.seconds);
      row.set("indexed_s", indexed.seconds);
      row.set("speedup", indexed.seconds > 0.0
                             ? legacy.seconds / indexed.seconds
                             : 0.0);
      row.set("grants", indexed.grants);
      row.set("grants_legacy", legacy.grants);
      row.set("identical_order", identical);
      report.push_back(std::move(row));

      std::cerr << point.pilots << " pilot(s) x " << point.nodes
                << " nodes x " << point.queued << " queued ["
                << policy_name(policy) << "]: legacy " << legacy.seconds
                << " s, indexed " << indexed.seconds << " s, speedup "
                << (indexed.seconds > 0.0
                        ? legacy.seconds / indexed.seconds
                        : 0.0)
                << (identical ? "" : "  ORDER MISMATCH") << "\n";
    }
  }

  const std::string out = report.dump(2);
  std::cout << out << "\n";
  std::ofstream file(bench::output_dir() + "/micro_scheduler.json");
  file << out << "\n";

  if (!all_identical) {
    std::cerr << "FAIL: grant order diverged from the first-fit "
                 "baseline\n";
    return 1;
  }
  return 0;
}
