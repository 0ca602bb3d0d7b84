// Unit tests for the platform substrate: nodes, launch models,
// clusters and the calibrated profiles.

#include <gtest/gtest.h>

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/platform/cluster.hpp"
#include "ripple/platform/launcher.hpp"
#include "ripple/platform/node.hpp"
#include "ripple/platform/profiles.hpp"

namespace {

using namespace ripple;

TEST(Node, AllocateAndRelease) {
  platform::Node node("n0", platform::NodeSpec{8, 2, 64.0}, "host0");
  EXPECT_TRUE(node.can_fit(8, 2, 64.0));
  const auto slot = node.allocate(4, 1, 16.0);
  EXPECT_EQ(node.free_cores(), 4u);
  EXPECT_EQ(node.free_gpus(), 1u);
  EXPECT_DOUBLE_EQ(node.free_mem_gb(), 48.0);
  node.release(slot);
  EXPECT_EQ(node.free_cores(), 8u);
  EXPECT_EQ(node.free_gpus(), 2u);
}

TEST(Node, OverAllocationThrows) {
  platform::Node node("n0", platform::NodeSpec{4, 1, 32.0}, "host0");
  EXPECT_THROW((void)node.allocate(5, 0, 0.0), Error);
  EXPECT_THROW((void)node.allocate(1, 2, 0.0), Error);
  EXPECT_THROW((void)node.allocate(1, 0, 64.0), Error);
}

TEST(Node, DoubleReleaseDetected) {
  platform::Node node("n0", platform::NodeSpec{4, 1, 32.0}, "host0");
  const auto slot = node.allocate(2, 0, 0.0);
  node.release(slot);
  EXPECT_THROW(node.release(slot), Error);
  // Releasing a slot from a different node is rejected too.
  platform::Node other("n1", platform::NodeSpec{4, 1, 32.0}, "host1");
  const auto slot2 = other.allocate(1, 0, 0.0);
  EXPECT_THROW(node.release(slot2), Error);
}

TEST(LaunchModel, FlatBelowThresholdGrowingAbove) {
  platform::LaunchModel model;
  model.base = common::Distribution::constant(2.0);
  model.contention_threshold = 160;
  model.contention_coeff = 0.016;
  EXPECT_DOUBLE_EQ(model.mean(1), 2.0);
  EXPECT_DOUBLE_EQ(model.mean(160), 2.0);
  EXPECT_NEAR(model.mean(640), 2.0 + 0.016 * 480.0, 1e-12);
  EXPECT_GT(model.mean(640), 2.0 * model.mean(160));  // Fig. 3 elbow
}

TEST(LaunchMethod, NamesRoundTrip) {
  for (const auto method :
       {platform::LaunchMethod::fork, platform::LaunchMethod::ssh,
        platform::LaunchMethod::mpiexec, platform::LaunchMethod::prrte}) {
    EXPECT_EQ(platform::launch_method_from_string(
                  platform::to_string(method)),
              method);
  }
  EXPECT_THROW((void)platform::launch_method_from_string("teleport"),
               Error);
}

TEST(Launcher, TracksInFlightAndUsesHint) {
  sim::EventLoop loop;
  platform::LaunchModel model;
  model.base = common::Distribution::constant(1.0);
  model.contention_threshold = 2;
  model.contention_coeff = 1.0;
  platform::Launcher launcher(loop, common::Rng(1), model);

  std::vector<double> durations;
  // Three launches at once: in-flight grows 1, 2, 3.
  for (int i = 0; i < 3; ++i) {
    launcher.launch([&](sim::Duration d) { durations.push_back(d); });
  }
  EXPECT_EQ(launcher.in_flight(), 3u);
  loop.run();
  EXPECT_EQ(launcher.in_flight(), 0u);
  EXPECT_EQ(launcher.completed(), 3u);
  ASSERT_EQ(durations.size(), 3u);
  // First launch saw concurrency 1 (no contention), third saw 3.
  EXPECT_DOUBLE_EQ(durations[0], 1.0);
  EXPECT_DOUBLE_EQ(durations[2], 2.0);

  // A wave hint raises the effective concurrency from the start.
  launcher.launch([&](sim::Duration d) { durations.push_back(d); },
                  /*concurrency_hint=*/10);
  loop.run();
  EXPECT_DOUBLE_EQ(durations.back(), 1.0 + 8.0);
}

TEST(Profiles, BuiltinsExposePaperCalibration) {
  const auto delta = platform::delta_profile();
  EXPECT_EQ(delta.name, "delta");
  EXPECT_EQ(delta.node.gpus, 4u);
  EXPECT_NEAR(delta.internode_latency.mean(), 63e-6, 1e-9);
  EXPECT_NEAR(delta.wan_latency.mean(), 0.47e-3, 1e-9);

  const auto frontier = platform::frontier_profile();
  EXPECT_EQ(frontier.node.gpus, 8u);
  EXPECT_EQ(frontier.max_nodes, 80u);  // 640 one-GPU service slots
  EXPECT_EQ(frontier.launch.contention_threshold, 160u);
  EXPECT_GT(frontier.launch.contention_coeff, 0.0);

  EXPECT_EQ(platform::profile_by_name("r3").name, "r3");
  EXPECT_EQ(platform::profile_by_name("frontier", 4).max_nodes, 4u);
  EXPECT_THROW((void)platform::profile_by_name("summit"), Error);
}

TEST(Profiles, JsonExportContainsModel) {
  const auto j = platform::delta_profile().to_json();
  EXPECT_EQ(j.at("name").as_string(), "delta");
  EXPECT_EQ(j.at("launch_method").as_string(), "mpiexec");
  EXPECT_TRUE(j.contains("internode_latency"));
}

class ClusterTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  common::Rng rng{11};
  sim::Network net{loop, rng};
  platform::Cluster cluster{loop, net, platform::delta_profile(4),
                            common::Rng(12)};
};

TEST_F(ClusterTest, RegistersHostsAndLinks) {
  EXPECT_EQ(cluster.node_count(), 4u);
  EXPECT_TRUE(net.has_host("delta:node0000"));
  EXPECT_TRUE(net.has_host(cluster.head_host()));
  // Intra-zone link works.
  const double delay = net.sample_delay(net.host_index("delta:node0000"),
                                        net.host_index("delta:node0001"), 0);
  EXPECT_GT(delay, 0.0);
  EXPECT_LT(delay, 1e-3);
}

TEST_F(ClusterTest, NodeLocalMessagingIsNotFree) {
  // Zone loopback: node-local messages still pay the TCP stack.
  const sim::HostIndex node = net.host_index("delta:node0000");
  const double loopback = net.sample_delay(node, node, 0);
  EXPECT_GT(loopback, 10e-6);
}

TEST_F(ClusterTest, ReserveAndReleaseNodes) {
  const auto nodes = cluster.reserve_nodes(3);
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ(cluster.free_node_count(), 1u);
  EXPECT_THROW((void)cluster.reserve_nodes(2), Error);
  cluster.release_nodes(nodes);
  EXPECT_EQ(cluster.free_node_count(), 4u);
  EXPECT_THROW((void)cluster.reserve_nodes(0), Error);
}

TEST(ClusterReserve, IndexedReservationMatchesLinearScanReference) {
  // Regression for the indexed free-set: a random reserve/release
  // sequence must grant exactly the nodes the legacy linear scan
  // (lowest free index first) granted, and agree on free counts and
  // capacity errors throughout.
  sim::EventLoop loop;
  common::Rng net_rng{3};
  sim::Network net{loop, net_rng};
  auto profile = platform::delta_profile(32);
  platform::Cluster cluster{loop, net, profile, common::Rng(4)};

  std::vector<bool> reference_reserved(cluster.node_count(), false);
  const auto reference_reserve =
      [&](std::size_t count) -> std::vector<std::string> {
    std::vector<std::string> out;
    for (std::size_t i = 0;
         i < reference_reserved.size() && out.size() < count; ++i) {
      if (!reference_reserved[i]) {
        reference_reserved[i] = true;
        out.push_back(cluster.node(i).id());
      }
    }
    return out;
  };

  common::Rng rng(99);
  std::vector<std::vector<platform::Node*>> held;
  for (int op = 0; op < 500; ++op) {
    const std::size_t free_reference = static_cast<std::size_t>(
        std::count(reference_reserved.begin(), reference_reserved.end(),
                   false));
    ASSERT_EQ(cluster.free_node_count(), free_reference);
    if (rng.chance(0.6)) {
      const auto count =
          static_cast<std::size_t>(rng.uniform_int(1, 8));
      if (count > free_reference) {
        EXPECT_THROW((void)cluster.reserve_nodes(count), Error);
        continue;
      }
      const std::vector<platform::Node*> got =
          cluster.reserve_nodes(count);
      const std::vector<std::string> expected = reference_reserve(count);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i]->id(), expected[i]) << "op " << op;
      }
      held.push_back(got);
    } else if (!held.empty()) {
      const std::size_t index = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(held.size()) - 1));
      for (const platform::Node* node : held[index]) {
        for (std::size_t i = 0; i < cluster.node_count(); ++i) {
          if (cluster.node(i).id() == node->id()) {
            reference_reserved[i] = false;
          }
        }
      }
      cluster.release_nodes(held[index]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(index));
    }
  }
}

TEST_F(ClusterTest, FindNode) {
  EXPECT_NE(cluster.find_node("delta:node0002"), nullptr);
  EXPECT_EQ(cluster.find_node("delta:node9999"), nullptr);
  EXPECT_THROW((void)cluster.node(99), Error);
}

TEST(ConnectClusters, WanLinksUseConservativeModel) {
  sim::EventLoop loop;
  common::Rng rng(7);
  sim::Network net(loop, rng);
  platform::Cluster delta(loop, net, platform::delta_profile(2),
                          common::Rng(1));
  platform::Cluster r3(loop, net, platform::r3_profile(1), common::Rng(2));
  platform::connect_clusters(net, {&delta, &r3});
  const sim::HostIndex from = net.host_index("delta:node0000");
  const sim::HostIndex to = net.host_index("r3:node0000");
  common::OnlineStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.add(net.sample_delay(from, to, 0));
  }
  EXPECT_NEAR(stats.mean(), 0.47e-3, 2e-5);  // paper: Delta<->R3 0.47 ms
}

}  // namespace
