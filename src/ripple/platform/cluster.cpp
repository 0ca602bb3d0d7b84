#include "ripple/platform/cluster.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::platform {

Cluster::Cluster(sim::EventLoop& loop, sim::Network& network,
                 PlatformProfile profile, common::Rng rng)
    : profile_(std::move(profile)),
      launcher_(loop, rng.fork("launcher"), profile_.launch) {
  ensure(profile_.max_nodes > 0, Errc::invalid_argument,
         "cluster needs at least one node");
  nodes_.reserve(profile_.max_nodes);
  by_id_.reserve(profile_.max_nodes);
  index_of_.reserve(profile_.max_nodes);
  for (std::size_t i = 0; i < profile_.max_nodes; ++i) {
    const std::string node_id =
        strutil::cat(profile_.name, ":node", strutil::zero_pad(i, 4));
    network.register_host(node_id, profile_.name);
    nodes_.push_back(std::make_unique<Node>(node_id, profile_.node, node_id));
    by_id_.emplace(node_id, nodes_.back().get());
    index_of_.emplace(nodes_.back().get(), i);
    free_indices_.insert(free_indices_.end(), i);
  }
  head_host_ = strutil::cat(profile_.name, ":head");
  network.register_host(head_host_, profile_.name);
  // Intra-zone link (inter-node); also covers head <-> node traffic.
  network.set_link(profile_.name, profile_.name,
                   sim::LinkModel{profile_.internode_latency,
                                  profile_.internode_bandwidth_bytes_per_s});
  // Node-local messaging still crosses the TCP/ZeroMQ stack: charge a
  // slightly discounted inter-node latency instead of a free loopback.
  network.set_zone_loopback(
      profile_.name,
      sim::LinkModel{profile_.internode_latency.scaled(0.8),
                     profile_.internode_bandwidth_bytes_per_s});
}

std::size_t Cluster::free_node_count() const noexcept {
  return free_indices_.size();
}

std::vector<Node*> Cluster::reserve_nodes(std::size_t count) {
  ensure(count > 0, Errc::invalid_argument, "reserve_nodes: zero nodes");
  ensure(count <= free_node_count(), Errc::capacity, "cluster ", profile_.name,
         ": requested ", count, " nodes, only ", free_node_count(), " free");
  std::vector<Node*> out;
  out.reserve(count);
  while (out.size() < count) {
    const auto first = free_indices_.begin();
    Node* node = nodes_[*first].get();
    free_indices_.erase(first);
    reserved_.insert(node);
    out.push_back(node);
  }
  return out;
}

void Cluster::release_nodes(const std::vector<Node*>& nodes) {
  for (const Node* node : nodes) {
    if (reserved_.erase(node) > 0) {
      const std::size_t index = index_of_.find(node)->second;
      (node->alive() ? free_indices_ : dead_free_).insert(index);
    }
  }
}

void Cluster::fail_node(Node& node) {
  node.fail();
  const std::size_t index = index_of_.find(&node)->second;
  if (free_indices_.erase(index) > 0) dead_free_.insert(index);
}

void Cluster::restore_node(Node& node) {
  node.restore();
  const std::size_t index = index_of_.find(&node)->second;
  if (dead_free_.erase(index) > 0) free_indices_.insert(index);
}

Node& Cluster::node(std::size_t index) {
  ensure(index < nodes_.size(), Errc::invalid_argument, "node index ", index,
         " out of range");
  return *nodes_[index];
}

Node* Cluster::find_node(const std::string& node_id) {
  const auto it = by_id_.find(node_id);
  return it == by_id_.end() ? nullptr : it->second;
}

void connect_clusters(sim::Network& network,
                      const std::vector<Cluster*>& clusters) {
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    for (std::size_t j = i + 1; j < clusters.size(); ++j) {
      const auto& a = clusters[i]->profile();
      const auto& b = clusters[j]->profile();
      // Conservative WAN model: the slower of the two profiles governs.
      const common::Distribution latency =
          a.wan_latency.mean() >= b.wan_latency.mean() ? a.wan_latency
                                                       : b.wan_latency;
      const double bandwidth = std::min(a.wan_bandwidth_bytes_per_s,
                                        b.wan_bandwidth_bytes_per_s);
      network.set_link(a.name, b.name, sim::LinkModel{latency, bandwidth});
    }
  }
}

}  // namespace ripple::platform
