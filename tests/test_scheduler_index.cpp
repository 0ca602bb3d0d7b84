// Tests for the indexed scheduler core: capacity-index first-fit
// equivalence, wait-queue ordering, backfill/fifo semantics on the
// indexed path, cancellation of queued vs granted requests, priority
// relations between services and tasks, batch submission, same-seed
// determinism of grant order, and parity of the bucketed backfill pass
// with the per-request passes it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ripple/common/error.hpp"
#include "ripple/common/hash.hpp"
#include "ripple/common/random.hpp"
#include "ripple/core/scheduler.hpp"
#include "ripple/core/session.hpp"
#include "ripple/core/wait_queue.hpp"
#include "ripple/ml/install.hpp"
#include "ripple/platform/capacity_index.hpp"
#include "ripple/platform/profiles.hpp"
#include "ripple/sim/event_loop.hpp"

namespace {

using namespace ripple;
using namespace ripple::core;

// ---------------------------------------------------------------------------
// CapacityIndex: first_fit must equal a linear first-fit scan, always.
// ---------------------------------------------------------------------------

class CapacityIndexTest : public ::testing::Test {
 protected:
  std::vector<std::unique_ptr<platform::Node>> owned_;
  std::vector<platform::Node*> nodes_;
  platform::CapacityIndex index_;

  void build(const std::vector<platform::NodeSpec>& specs) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      owned_.push_back(std::make_unique<platform::Node>(
          "n" + std::to_string(i), specs[i], "n" + std::to_string(i)));
      nodes_.push_back(owned_.back().get());
    }
    index_.attach(nodes_);
  }

  platform::Node* linear_first_fit(std::size_t cores, std::size_t gpus,
                                   double mem) {
    for (platform::Node* node : nodes_) {
      if (node->can_fit(cores, gpus, mem)) return node;
    }
    return nullptr;
  }
};

TEST_F(CapacityIndexTest, PicksLowestIndexedFit) {
  build(std::vector<platform::NodeSpec>(5, {8, 2, 64.0}));
  EXPECT_EQ(index_.first_fit(4, 0, 0.0), nodes_[0]);
  (void)nodes_[0]->allocate(8, 0, 0.0);
  EXPECT_EQ(index_.first_fit(4, 0, 0.0), nodes_[1]);
  // GPU-aware secondary filter: node0 still has GPUs but no cores.
  EXPECT_EQ(index_.first_fit(1, 1, 0.0), nodes_[1]);
  (void)nodes_[1]->allocate(0, 2, 0.0);
  EXPECT_EQ(index_.first_fit(1, 1, 0.0), nodes_[2]);
  EXPECT_EQ(index_.first_fit(9, 0, 0.0), nullptr);
}

TEST_F(CapacityIndexTest, MixedDimensionMaximaDoNotFoolTheDescent) {
  // node0 has cores but no GPUs, node1 GPUs but no cores: the subtree
  // maxima (8 cores, 2 gpus) pass a (8c, 2g) probe although neither
  // node fits — the descent must backtrack to node2.
  build({{8, 2, 64.0}, {8, 2, 64.0}, {8, 2, 64.0}});
  (void)nodes_[0]->allocate(0, 2, 0.0);
  (void)nodes_[1]->allocate(8, 0, 0.0);
  EXPECT_EQ(index_.first_fit(8, 2, 0.0), nodes_[2]);
  (void)nodes_[2]->allocate(1, 0, 0.0);
  EXPECT_EQ(index_.first_fit(8, 2, 0.0), nullptr);
}

TEST_F(CapacityIndexTest, ReleaseRestoresFitIncrementally) {
  build(std::vector<platform::NodeSpec>(4, {4, 1, 16.0}));
  std::vector<platform::Slot> slots;
  for (auto* node : nodes_) slots.push_back(node->allocate(4, 1, 16.0));
  EXPECT_EQ(index_.first_fit(1, 0, 0.0), nullptr);
  nodes_[2]->release(slots[2]);
  EXPECT_EQ(index_.first_fit(1, 0, 0.0), nodes_[2]);
  EXPECT_EQ(index_.max_free_cores(), 4u);
}

TEST_F(CapacityIndexTest, FuzzMatchesLinearScan) {
  common::Rng rng(77);
  std::vector<platform::NodeSpec> specs;
  for (int i = 0; i < 37; ++i) {  // non-power-of-two on purpose
    specs.push_back({static_cast<std::size_t>(rng.uniform_int(4, 64)),
                     static_cast<std::size_t>(rng.uniform_int(0, 8)),
                     rng.uniform(16.0, 512.0)});
  }
  build(specs);
  std::vector<platform::Slot> held;
  for (int step = 0; step < 3000; ++step) {
    const std::size_t cores =
        static_cast<std::size_t>(rng.uniform_int(1, 48));
    const std::size_t gpus = static_cast<std::size_t>(rng.uniform_int(0, 6));
    const double mem = rng.uniform(0.0, 256.0);
    platform::Node* expected = linear_first_fit(cores, gpus, mem);
    platform::Node* actual = index_.first_fit(cores, gpus, mem);
    ASSERT_EQ(actual, expected) << "step " << step;
    if (expected != nullptr) {
      held.push_back(expected->allocate(cores, gpus, mem));
    }
    // Random releases keep the load fluctuating.
    while (!held.empty() && rng.uniform(0.0, 1.0) < 0.45) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      platform::Slot slot = held[pick];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      for (auto* node : nodes_) {
        if (node->id() == slot.node_id) {
          node->release(slot);
          break;
        }
      }
    }
  }
}

TEST_F(CapacityIndexTest, DetachClearsListeners) {
  build(std::vector<platform::NodeSpec>(3, {8, 2, 64.0}));
  EXPECT_EQ(nodes_[0]->capacity_listener(), &index_);
  index_.detach();
  EXPECT_EQ(nodes_[0]->capacity_listener(), nullptr);
  EXPECT_EQ(index_.size(), 0u);
}

// ---------------------------------------------------------------------------
// WaitQueue
// ---------------------------------------------------------------------------

ScheduleRequest dummy_request(const std::string& uid, int priority = 0) {
  ScheduleRequest request;
  request.uid = uid;
  request.priority = priority;
  request.granted = [](platform::Slot, platform::Node*) {};
  return request;
}

TEST(WaitQueue, OrdersByPriorityThenSequence) {
  WaitQueue queue;
  queue.push({0, 0}, {dummy_request("a", 0), 0.0});
  queue.push({5, 1}, {dummy_request("b", 5), 0.0});
  queue.push({5, 2}, {dummy_request("c", 5), 0.0});
  queue.push({-1, 3}, {dummy_request("d", -1), 0.0});
  std::vector<std::string> order;
  for (const auto& [key, entry] : queue) order.push_back(entry.request.uid);
  EXPECT_EQ(order, (std::vector<std::string>{"b", "c", "a", "d"}));
}

TEST(WaitQueue, EraseByKey) {
  WaitQueue queue;
  // Requests are named by key, so two may share a uid.
  queue.push({0, 0}, {dummy_request("x"), 0.0});
  queue.push({1, 1}, {dummy_request("x"), 0.0});
  queue.push({0, 2}, {dummy_request("y"), 0.0});
  ASSERT_EQ(queue.buckets().size(), 1u);
  // The head leaves as a grant does, by iterator.
  ASSERT_EQ(queue.begin()->first.sequence, 1u);
  queue.erase(queue.begin());
  EXPECT_FALSE(queue.erase(WaitQueue::Key{1, 1}));  // already granted
  EXPECT_FALSE(queue.erase(WaitQueue::Key{0, 7}));  // never issued
  EXPECT_FALSE(queue.erase(WaitQueue::Key{1, 0}));  // 0 queues at priority 0
  EXPECT_TRUE(queue.erase(WaitQueue::Key{0, 2}));   // queued
  EXPECT_FALSE(queue.erase(WaitQueue::Key{0, 2}));  // gone
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.begin()->first.sequence, 0u);
  EXPECT_EQ(queue.buckets().begin()->second.size(), 1u);
  EXPECT_TRUE(queue.erase(WaitQueue::Key{0, 0}));
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(queue.buckets().empty());
}

// ---------------------------------------------------------------------------
// Scheduler semantics on the indexed path
// ---------------------------------------------------------------------------

class IndexedSchedulerTest : public ::testing::Test {
 protected:
  Session session{SessionConfig{.seed = 31}};
  Pilot* pilot = nullptr;

  void SetUp() override {
    session.add_platform(platform::delta_profile(2));  // 64c/4g per node
    pilot = &session.submit_pilot({.platform = "delta", .nodes = 2});
  }

  ScheduleRequest request(const std::string& uid, std::size_t cores,
                          std::size_t gpus, int priority,
                          std::vector<std::string>& order) {
    ScheduleRequest r;
    r.uid = uid;
    r.cores = cores;
    r.gpus = gpus;
    r.priority = priority;
    r.granted = [&order, uid](platform::Slot, platform::Node*) {
      order.push_back(uid);
    };
    return r;
  }
};

TEST_F(IndexedSchedulerTest, BackfillOvertakesBlockedHeadOnRelease) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("big1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("big2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("blocked", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("small", 8, 0, 0, order));
  session.run();
  ASSERT_EQ(order.size(), 2u);
  // Free 8 cores: the blocked full-node head cannot take them, the
  // small request overtakes it.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "small");
  EXPECT_EQ(sched.queue_length(pilot->uid()), 1u);
}

TEST_F(IndexedSchedulerTest, CancelQueuedVersusGranted) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  const auto granted =
      sched.submit(pilot->uid(), request("granted", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog", 64, 0, 0, order));
  const auto queued =
      sched.submit(pilot->uid(), request("queued", 64, 0, 0, order));
  session.run();
  EXPECT_TRUE(sched.cancel(pilot->uid(), queued));
  EXPECT_FALSE(sched.cancel(pilot->uid(), queued));   // gone
  EXPECT_FALSE(sched.cancel(pilot->uid(), granted));  // holds a slot
  // Never issued: the next sequence number.
  const Scheduler::Ticket ghost{0, queued.sequence + 1};
  EXPECT_FALSE(sched.cancel(pilot->uid(), ghost));
  EXPECT_EQ(sched.queue_length(pilot->uid()), 0u);
}

TEST_F(IndexedSchedulerTest, FifoHeadCancelUnblocksQueueOnNextSubmit) {
  session.scheduler().set_policy(SchedulerPolicy::fifo);
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  const auto blocker =
      sched.submit(pilot->uid(), request("blocker", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  session.run();
  EXPECT_EQ(order.size(), 2u);
  // Partial release: under fifo nothing may pass the blocked head.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  EXPECT_EQ(order.size(), 2u);
  // Cancelling the head does not itself re-run placement; the next
  // submit's pass must grant `small` the freed cores.
  EXPECT_TRUE(sched.cancel(pilot->uid(), blocker));
  sched.submit(pilot->uid(), request("late", 64, 0, 0, order));
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "small");
}

TEST_F(IndexedSchedulerTest, ServiceRequestsOutrankTaskRequests) {
  // Default priorities: services 100, tasks 0. Saturate the pilot, then
  // queue a task before a service: the service must be granted first
  // once capacity frees up.
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  TaskDescription task;
  ServiceDescription service;
  sched.submit(pilot->uid(),
               request("task", 8, 0, task.priority, order));
  sched.submit(pilot->uid(),
               request("service", 8, 0, service.priority, order));
  session.run();
  ASSERT_EQ(order.size(), 2u);
  sched.release(pilot->uid(), platform::Slot{"delta:node0001", 64, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[2], "service");
  EXPECT_EQ(order[3], "task");
}

TEST_F(IndexedSchedulerTest, DataAwareBackfillPrefersResidentInputs) {
  // Oracle: inputs named "cold" still have bytes to move; everything
  // else is resident. Within a priority class, resident requests must
  // overtake earlier-submitted cold ones when both fit.
  session.scheduler().set_locality_oracle(
      [](const std::vector<std::string>& datasets, const std::string&) {
        double bytes = 0.0;
        for (const auto& name : datasets) {
          if (name == "cold") bytes += 1e9;
        }
        return bytes;
      });
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  ScheduleRequest cold = request("cold-task", 8, 0, 0, order);
  cold.input_datasets = {"cold"};
  ScheduleRequest warm = request("warm-task", 8, 0, 0, order);
  warm.input_datasets = {"warm"};
  sched.submit(pilot->uid(), std::move(cold));
  sched.submit(pilot->uid(), std::move(warm));
  session.run();
  ASSERT_EQ(order.size(), 2u);
  // Room for one 8-core request: the resident-input task wins it even
  // though the cold one was submitted first.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "warm-task");
  // More capacity: the cold request backfills right behind.
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[3], "cold-task");
}

TEST_F(IndexedSchedulerTest, DataAwarenessNeverCrossesPriorityClasses) {
  // A resident low-priority request must NOT overtake a cold
  // higher-priority one: residency is a tie-break within a class only.
  session.scheduler().set_locality_oracle(
      [](const std::vector<std::string>& datasets, const std::string&) {
        return datasets.empty() ? 0.0 : 1e9;
      });
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  ScheduleRequest cold_high = request("cold-high", 8, 0, 5, order);
  cold_high.input_datasets = {"remote"};
  sched.submit(pilot->uid(), std::move(cold_high));
  sched.submit(pilot->uid(), request("warm-low", 8, 0, 0, order));
  session.run();
  ASSERT_EQ(order.size(), 2u);
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "cold-high");
}

TEST_F(IndexedSchedulerTest, SubmitAllEnactsPrioritiesAcrossBatch) {
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  std::vector<ScheduleRequest> batch;
  batch.push_back(request("low", 64, 0, 0, order));
  batch.push_back(request("mid", 64, 0, 1, order));
  batch.push_back(request("high", 64, 0, 2, order));
  // Two nodes: only two grants possible. Unlike sequential submits
  // (where `low` would grab a node first), the batch is placed in
  // priority order.
  const auto tickets = sched.submit_all(pilot->uid(), std::move(batch));
  session.run();
  EXPECT_EQ(tickets.size(), 3u);
  EXPECT_EQ(sched.granted_total(), 2u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "mid");
  EXPECT_EQ(sched.queue_length(pilot->uid()), 1u);
}

TEST_F(IndexedSchedulerTest, PolicySwitchForcesRescan) {
  session.scheduler().set_policy(SchedulerPolicy::fifo);
  std::vector<std::string> order;
  auto& sched = session.scheduler();
  sched.submit(pilot->uid(), request("hog1", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("hog2", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("blocker", 64, 0, 0, order));
  sched.submit(pilot->uid(), request("small", 1, 0, 0, order));
  sched.release(pilot->uid(), platform::Slot{"delta:node0000", 8, 0, 0.0});
  session.run();
  EXPECT_EQ(order.size(), 2u);  // fifo: head blocks
  // Under backfill those 8 free cores are usable — the next submit's
  // pass runs under the new policy and must not leave `small` stranded.
  sched.set_policy(SchedulerPolicy::backfill);
  sched.submit(pilot->uid(), request("late", 64, 0, 0, order));
  session.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], "small");
}

// ---------------------------------------------------------------------------
// Determinism: identical grant order across two same-seed runs.
// ---------------------------------------------------------------------------

enum class OracleMode {
  session_default,  ///< the Session's data-plane oracle (no datasets
                    ///< are registered, so every footprint is zero)
  disabled,         ///< oracle removed: the pre-data-aware scan
  all_zero,         ///< explicit constant-zero oracle
};

std::vector<std::string> grant_trace(
    SchedulerPolicy policy, std::uint64_t seed,
    OracleMode oracle = OracleMode::session_default) {
  Session session{SessionConfig{.seed = seed, .scheduler_policy = policy}};
  session.add_platform(platform::delta_profile(4));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 4});
  auto& sched = session.scheduler();
  if (oracle == OracleMode::disabled) {
    sched.set_locality_oracle({});
  } else if (oracle == OracleMode::all_zero) {
    sched.set_locality_oracle(
        [](const std::vector<std::string>&, const std::string&) {
          return 0.0;
        });
  }
  common::Rng rng(seed);

  std::vector<std::string> order;
  std::vector<platform::Slot> held;
  for (int i = 0; i < 400; ++i) {
    ScheduleRequest request;
    request.uid = "t" + std::to_string(i);
    request.cores = static_cast<std::size_t>(rng.uniform_int(1, 64));
    request.gpus = static_cast<std::size_t>(rng.uniform_int(0, 4));
    request.priority = static_cast<int>(rng.uniform_int(0, 2));
    if (i % 3 == 0) {
      // A footprint that resolves to zero bytes either way: unknown
      // datasets cost nothing in the Session's data-plane oracle.
      request.input_datasets = {"unregistered-" + std::to_string(i)};
    }
    request.granted = [&order, &held, uid = request.uid](
                          platform::Slot slot, platform::Node*) {
      order.push_back(uid);
      held.push_back(std::move(slot));
    };
    sched.submit(pilot.uid(), std::move(request));
    session.run();
    // Deterministically churn capacity so later grants depend on the
    // exact placement of earlier ones.
    if (i % 2 == 0 && !held.empty()) {
      sched.release(pilot.uid(), held.front());
      held.erase(held.begin());
      session.run();
    }
  }
  while (!held.empty()) {
    sched.release(pilot.uid(), held.front());
    held.erase(held.begin());
    session.run();
  }
  return order;
}

TEST(SchedulerDeterminism, SameSeedSameGrantOrder) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::fifo, SchedulerPolicy::backfill}) {
    const auto first = grant_trace(policy, 1234);
    const auto second = grant_trace(policy, 1234);
    EXPECT_EQ(first, second);
    EXPECT_GT(first.size(), 100u);
  }
}

TEST(SchedulerDeterminism, DataAwareZeroFootprintParity) {
  // The conservative guarantee: with every request footprint zero, the
  // data-aware backfill pass grants in exactly the pre-data-aware
  // order, event for event — across 400 mixed-priority requests with
  // capacity churn.
  for (const std::uint64_t seed : {1234ull, 77ull}) {
    const auto blind =
        grant_trace(SchedulerPolicy::backfill, seed, OracleMode::disabled);
    const auto aware =
        grant_trace(SchedulerPolicy::backfill, seed, OracleMode::all_zero);
    const auto via_session = grant_trace(SchedulerPolicy::backfill, seed,
                                         OracleMode::session_default);
    EXPECT_EQ(blind, aware);
    EXPECT_EQ(blind, via_session);
    EXPECT_GT(blind.size(), 100u);
  }
}

// ---------------------------------------------------------------------------
// Composite-pass parity: the bucketed backfill pass against the three
// per-request passes it replaced, written out as linear scans.
// ---------------------------------------------------------------------------

/// Plain backfill, data-aware backfill and fair share as they were
/// before the wait queue had buckets: every queued request is probed,
/// with a linear first-fit over copies of the pilots' nodes. Every
/// operation runs one pass over one pilot and commits its grants in
/// pass order.
class ReferenceScheduler {
 public:
  struct Request {
    std::string uid;
    std::size_t cores = 0;
    std::size_t gpus = 0;
    double mem_gb = 0.0;
    int priority = 0;
    std::string tenant;
    std::vector<std::string> inputs;
  };

  void add_pilot(const Pilot& pilot) {
    PilotState state;
    state.zone = pilot.cluster().name();
    for (const platform::Node* node : pilot.nodes()) {
      const platform::NodeSpec& spec = node->spec();
      state.nodes.push_back({node->id(), spec.cores, spec.gpus, spec.mem_gb});
      state.total_cores += spec.cores;
      state.total_gpus += spec.gpus;
      state.total_mem += spec.mem_gb;
    }
    pilots_.push_back(std::move(state));
  }

  void set_oracle(Scheduler::LocalityOracle oracle) {
    oracle_ = std::move(oracle);
  }
  void set_tenant_weight(const std::string& tenant, double weight) {
    weights_[tenant] = weight;
  }

  void submit(std::size_t pilot, Request request, double now) {
    enqueue(pilot, std::move(request), now);
    commit(pass(pilots_[pilot]));
  }

  void submit_all(std::size_t pilot, std::vector<Request> requests,
                  double now) {
    for (Request& request : requests) {
      enqueue(pilot, std::move(request), now);
    }
    commit(pass(pilots_[pilot]));
  }

  void release(std::size_t pilot, const platform::Slot& slot) {
    free(pilot, slot);
    commit(pass(pilots_[pilot]));
  }

  [[nodiscard]] const std::vector<std::string>& order() const {
    return order_;
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  struct NodeState {
    std::string id;
    std::size_t cores = 0;
    std::size_t gpus = 0;
    double mem_gb = 0.0;
  };
  struct Queued {
    Request request;
    double enqueued_at = 0.0;
  };
  struct PilotState {
    std::string zone;
    std::vector<NodeState> nodes;
    std::map<WaitQueue::Key, Queued> waiting;
    std::size_t total_cores = 0;
    std::size_t total_gpus = 0;
    double total_mem = 0.0;
  };
  struct Grant {
    Request request;
    std::string node;
    double cost = 0.0;
  };

  void enqueue(std::size_t pilot, Request request, double now) {
    const WaitQueue::Key key{request.priority, next_sequence_++};
    pilots_[pilot].waiting.emplace(key, Queued{std::move(request), now});
  }

  void free(std::size_t pilot, const platform::Slot& slot) {
    for (NodeState& node : pilots_[pilot].nodes) {
      if (node.id != slot.node_id) continue;
      node.cores += slot.cores;
      node.gpus += slot.gpus;
      node.mem_gb += slot.mem_gb;
    }
  }

  static NodeState* first_fit(PilotState& pilot, const Request& request) {
    for (NodeState& node : pilot.nodes) {
      if (request.cores <= node.cores && request.gpus <= node.gpus &&
          request.mem_gb <= node.mem_gb) {
        return &node;
      }
    }
    return nullptr;
  }

  [[nodiscard]] double share(const std::string& tenant) const {
    const auto it = shares_.find(tenant);
    return it == shares_.end() ? 0.0 : it->second;
  }

  /// Probes `key`; on a fit allocates, records the grant and dequeues.
  void probe(PilotState& pilot, const WaitQueue::Key& key,
             std::vector<Grant>& out) {
    const auto it = pilot.waiting.find(key);
    const Request& request = it->second.request;
    NodeState* node = first_fit(pilot, request);
    if (node == nullptr) return;
    node->cores -= request.cores;
    node->gpus -= request.gpus;
    node->mem_gb -= request.mem_gb;
    Grant grant{request, node->id};
    if (!weights_.empty() && !request.tenant.empty()) {
      // DRF: dominant resource fraction of the pilot over the weight.
      const auto cores = static_cast<double>(request.cores);
      const auto gpus = static_cast<double>(request.gpus);
      double fraction = cores / static_cast<double>(pilot.total_cores);
      if (request.gpus > 0) {
        fraction = std::max(fraction,
                            gpus / static_cast<double>(pilot.total_gpus));
      }
      if (request.mem_gb > 0.0) {
        fraction = std::max(fraction, request.mem_gb / pilot.total_mem);
      }
      const auto weight = weights_.find(request.tenant);
      grant.cost = fraction / (weight == weights_.end() ? 1.0 : weight->second);
    }
    out.push_back(std::move(grant));
    pilot.waiting.erase(it);
  }

  std::vector<Grant> pass(PilotState& pilot) {
    std::vector<WaitQueue::Key> keys;
    for (const auto& [key, queued] : pilot.waiting) keys.push_back(key);
    std::vector<Grant> out;
    if (!weights_.empty()) {
      // Fair share: (priority, share at pass start, time, sequence).
      std::vector<std::pair<WaitQueue::Key, double>> order;
      for (const WaitQueue::Key& key : keys) {
        order.emplace_back(key, share(pilot.waiting.at(key).request.tenant));
      }
      std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
        if (a.first.priority != b.first.priority) {
          return a.first.priority > b.first.priority;
        }
        if (a.second != b.second) return a.second < b.second;
        const double ta = pilot.waiting.at(a.first).enqueued_at;
        const double tb = pilot.waiting.at(b.first).enqueued_at;
        if (ta != tb) return ta < tb;
        return a.first.sequence < b.first.sequence;
      });
      for (const auto& [key, snapshot] : order) probe(pilot, key, out);
    } else if (oracle_) {
      // Data-aware: per priority class, resident requests first, then
      // the ones whose inputs still have bytes to move.
      std::size_t begin = 0;
      while (begin < keys.size()) {
        std::size_t end = begin;
        std::vector<WaitQueue::Key> deferred;
        while (end < keys.size() &&
               keys[end].priority == keys[begin].priority) {
          const Request& request = pilot.waiting.at(keys[end]).request;
          if (!request.inputs.empty() &&
              oracle_(request.inputs, pilot.zone) > 0.0) {
            deferred.push_back(keys[end]);
          } else {
            probe(pilot, keys[end], out);
          }
          ++end;
        }
        for (const WaitQueue::Key& key : deferred) probe(pilot, key, out);
        begin = end;
      }
    } else {
      for (const WaitQueue::Key& key : keys) probe(pilot, key, out);
    }
    return out;
  }

  void commit(const std::vector<Grant>& grants) {
    for (const Grant& grant : grants) {
      const Request& request = grant.request;
      order_.push_back(request.uid);
      hash_ = common::fnv1a(hash_, request.uid);
      hash_ = common::fnv1a(hash_, grant.node);
      hash_ = common::fnv1a(hash_, static_cast<std::uint64_t>(request.cores));
      hash_ = common::fnv1a(hash_, static_cast<std::uint64_t>(request.gpus));
      if (!request.tenant.empty() && grant.cost > 0.0) {
        shares_[request.tenant] += grant.cost;
      }
    }
  }

  std::vector<PilotState> pilots_;
  Scheduler::LocalityOracle oracle_;
  std::map<std::string, double> weights_;
  std::map<std::string, double> shares_;
  std::uint64_t next_sequence_ = 0;
  std::vector<std::string> order_;
  std::uint64_t hash_ = common::kFnvOffsetBasis;
};

struct ParityRun {
  std::vector<std::string> order;
  std::uint64_t hash = 0;
};

/// Drives the scheduler and the reference through the same seeded mix
/// of submit, submit_all, single releases and release waves on 4
/// pilots, asserting identical grants after every step.
ParityRun run_parity(bool locality, bool fair, std::uint64_t seed) {
  Session session{SessionConfig{.seed = seed}};
  session.add_platform(platform::delta_profile(8));  // 64c/4g/256GB
  auto& sched = session.scheduler();
  ReferenceScheduler reference;
  std::vector<Pilot*> pilots;
  for (int p = 0; p < 4; ++p) {
    pilots.push_back(&session.submit_pilot({.platform = "delta", .nodes = 2}));
    reference.add_pilot(*pilots.back());
  }

  // Seeded, live residency: a dataset is remote in a zone for one epoch
  // in three. The epoch only moves between operations.
  int epoch = 0;
  Scheduler::LocalityOracle oracle;
  if (locality) {
    oracle = [&epoch](const std::vector<std::string>& datasets,
                      const std::string& zone) {
      std::uint64_t h = common::fnv1a(common::kFnvOffsetBasis, zone);
      h = common::fnv1a(h, static_cast<std::uint64_t>(epoch));
      double bytes = 0.0;
      for (const auto& name : datasets) {
        if (common::fnv1a(h, name) % 3 == 0) bytes += 1e9;
      }
      return bytes;
    };
  }
  sched.set_locality_oracle(oracle);
  reference.set_oracle(oracle);
  const std::vector<std::string> tenants = {"a", "b", "c", ""};
  if (fair) {
    for (std::size_t t = 0; t < 3; ++t) {
      sched.set_tenant_weight(tenants[t], 1.0 + static_cast<double>(t));
      reference.set_tenant_weight(tenants[t], 1.0 + static_cast<double>(t));
    }
  }

  struct ShapeSpec {
    std::size_t cores;
    std::size_t gpus;
    double mem_gb;
  };
  const std::vector<ShapeSpec> shapes = {
      {64, 0, 0.0}, {32, 2, 0.0}, {16, 1, 64.0}, {8, 0, 200.0}, {4, 0, 0.0}};
  common::Rng rng(seed);
  ParityRun run;
  std::vector<std::pair<std::size_t, platform::Slot>> held;
  std::size_t next_uid = 0;
  const auto make = [&](std::size_t pilot) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const ShapeSpec& shape = shapes[pick];
    ReferenceScheduler::Request spec;
    spec.uid = "r" + std::to_string(next_uid++);
    spec.cores = shape.cores;
    spec.gpus = shape.gpus;
    spec.mem_gb = shape.mem_gb;
    spec.priority = static_cast<int>(rng.uniform_int(0, 2));
    spec.tenant = tenants[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    if (rng.uniform_int(0, 2) == 0) {
      spec.inputs = {"ds" + std::to_string(rng.uniform_int(0, 5))};
    }
    ScheduleRequest request;
    request.uid = spec.uid;
    request.cores = spec.cores;
    request.gpus = spec.gpus;
    request.mem_gb = spec.mem_gb;
    request.priority = spec.priority;
    request.tenant = spec.tenant;
    request.input_datasets = spec.inputs;
    request.granted = [&run, &held, pilot, uid = spec.uid](
                          platform::Slot slot, platform::Node*) {
      run.order.push_back(uid);
      held.emplace_back(pilot, std::move(slot));
    };
    return std::make_pair(std::move(request), std::move(spec));
  };
  const auto pick_held = [&] {
    const auto i = static_cast<std::ptrdiff_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
    auto slot = held[static_cast<std::size_t>(i)];
    held.erase(held.begin() + i);
    return slot;
  };

  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = rng.uniform_int(0, 5);
    if (op <= 1) {
      const auto pilot = static_cast<std::size_t>(rng.uniform_int(0, 3));
      auto [request, spec] = make(pilot);
      sched.submit(pilots[pilot]->uid(), std::move(request));
      reference.submit(pilot, std::move(spec), session.now());
    } else if (op == 2) {
      const auto pilot = static_cast<std::size_t>(rng.uniform_int(0, 3));
      std::vector<ScheduleRequest> requests;
      std::vector<ReferenceScheduler::Request> specs;
      const std::int64_t count = rng.uniform_int(2, 6);
      for (std::int64_t i = 0; i < count; ++i) {
        auto [request, spec] = make(pilot);
        requests.push_back(std::move(request));
        specs.push_back(std::move(spec));
      }
      sched.submit_all(pilots[pilot]->uid(), std::move(requests));
      reference.submit_all(pilot, std::move(specs), session.now());
    } else if (op == 3 && !held.empty()) {
      const auto [pilot, slot] = pick_held();
      sched.release(pilots[pilot]->uid(), slot);
      reference.release(pilot, slot);
    } else if (op == 4 && !held.empty()) {
      // A wave of releases before the loop runs the granted callbacks.
      const std::int64_t count = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < count && !held.empty(); ++i) {
        const auto [pilot, slot] = pick_held();
        sched.release(pilots[pilot]->uid(), slot);
        reference.release(pilot, slot);
      }
    } else {
      ++epoch;
      session.run_until(session.now() + 1.0);
    }
    session.run();
    EXPECT_EQ(run.order, reference.order()) << "step " << step;
    if (run.order != reference.order()) break;
  }
  // Drain: every request is eventually granted, in the same order.
  while (!held.empty()) {
    const auto [pilot, slot] = pick_held();
    sched.release(pilots[pilot]->uid(), slot);
    reference.release(pilot, slot);
    session.run();
  }
  EXPECT_EQ(run.order, reference.order());
  EXPECT_EQ(sched.waiting_total(), 0u);
  run.hash = sched.grant_log_hash();
  EXPECT_EQ(run.hash, reference.hash());
  return run;
}

TEST(CompositePassParity, MatchesPerRequestPassesAcrossPolicies) {
  for (const std::uint64_t seed : {5ull, 91ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ParityRun plain = run_parity(false, false, seed);
    EXPECT_GT(plain.order.size(), 200u);
    // Declared inputs under the oracle, which no benchmark workload
    // runs: residency must reorder some grants.
    const ParityRun aware = run_parity(true, false, seed);
    EXPECT_NE(aware.order, plain.order);
    // Fair share with the oracle installed too: it ignores residency.
    const ParityRun fair = run_parity(true, true, seed);
    EXPECT_NE(fair.order, plain.order);
  }
}

// ---------------------------------------------------------------------------
// Manager batch paths end-to-end
// ---------------------------------------------------------------------------

TEST(ManagerBatch, TasksAndServicesCompleteThroughBatchSubmission) {
  Session session{SessionConfig{.seed = 7}};
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  std::vector<ServiceDescription> services;
  for (int i = 0; i < 3; ++i) {
    ServiceDescription desc;
    desc.name = "svc";
    desc.program = "inference";
    desc.config = json::Value::object({{"model", "noop"}});
    desc.cores = 1;
    desc.gpus = 1;
    services.push_back(desc);
  }
  const auto svc_uids = session.services().submit_all(pilot, services);
  EXPECT_EQ(svc_uids.size(), 3u);

  TaskDescription task;
  task.name = "t";
  task.kind = "modeled";
  task.cores = 1;
  task.duration = common::Distribution::constant(1.0);
  const auto task_uids =
      session.tasks().submit_all(pilot, {task, task, task, task});

  bool tasks_done = false;
  session.tasks().when_done(task_uids, [&](bool ok) { tasks_done = ok; });
  bool services_up = false;
  session.services().when_ready(svc_uids, [&](bool ok) {
    services_up = ok;
    session.services().stop_all();
  });
  session.run();
  EXPECT_TRUE(services_up);
  EXPECT_TRUE(tasks_done);
  EXPECT_EQ(session.tasks().count_in_state(TaskState::done), 4u);
}

TEST(ManagerBatch, OversizedTaskFailsWithoutStrandingSiblings) {
  Session session{SessionConfig{.seed = 8}};
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  TaskDescription good;
  good.name = "t";
  good.kind = "modeled";
  good.cores = 1;
  good.duration = common::Distribution::constant(1.0);
  TaskDescription impossible = good;
  impossible.cores = 1000;  // exceeds every node

  const auto uids =
      session.tasks().submit_all(pilot, {good, impossible, good});
  session.run();
  EXPECT_EQ(session.tasks().get(uids[0]).state(), TaskState::done);
  EXPECT_EQ(session.tasks().get(uids[1]).state(), TaskState::failed);
  EXPECT_EQ(session.tasks().get(uids[2]).state(), TaskState::done);
}

TEST(ManagerBatch, MidBatchThrowDoesNotStrandEarlierTasks) {
  Session session{SessionConfig{.seed = 12}};
  ml::install(session);
  session.add_platform(platform::delta_profile(2));
  Pilot& pilot = session.submit_pilot({.platform = "delta", .nodes = 2});

  TaskDescription good;
  good.name = "t";
  good.kind = "modeled";
  good.cores = 1;
  good.duration = common::Distribution::constant(1.0);
  TaskDescription bad = good;
  bad.kind = "no-such-payload";

  EXPECT_THROW(session.tasks().submit_all(pilot, {good, bad}), Error);
  const auto uids = session.tasks().uids();
  ASSERT_EQ(uids.size(), 1u);  // the good task was created before the throw
  session.run();
  EXPECT_EQ(session.tasks().get(uids[0]).state(), TaskState::done);
}

// ---------------------------------------------------------------------------
// EventLoop cancellation bookkeeping regression
// ---------------------------------------------------------------------------

TEST(EventLoopCancel, CancelAfterFireNeitherSucceedsNorLeaks) {
  sim::EventLoop loop;
  std::vector<sim::EventLoop::TimerHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(loop.call_after(0.1 * i, [] {}));
  }
  loop.run();
  // All events fired: cancelling them now must fail and must not park
  // their ids in the cancelled set forever.
  for (const auto& handle : handles) EXPECT_FALSE(loop.cancel(handle));
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  EXPECT_EQ(loop.pending(), 0u);

  // Live cancellations still work and drain once popped.
  auto keep = loop.call_after(1.0, [] {});
  auto drop = loop.call_after(2.0, [] {});
  EXPECT_TRUE(loop.cancel(drop));
  EXPECT_FALSE(loop.cancel(drop));
  EXPECT_EQ(loop.cancelled_backlog(), 1u);
  loop.run();
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  (void)keep;
}

}  // namespace
