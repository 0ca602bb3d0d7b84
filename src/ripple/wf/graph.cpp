#include "ripple/wf/graph.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::wf {

std::size_t Graph::add(GraphNode node) {
  ensure(!node.stage.name.empty(), Errc::invalid_argument, "graph '", name,
         "': node needs a stage name");
  ensure(index_.find(node.stage.name) == index_.end(), Errc::invalid_argument,
         "graph '", name, "': duplicate node '", node.stage.name, "'");
  const std::size_t seq = nodes_.size();
  index_.emplace(node.stage.name, seq);
  nodes_.push_back(std::move(node));
  return seq;
}

std::size_t Graph::add(Stage stage) {
  GraphNode node;
  node.stage = std::move(stage);
  return add(std::move(node));
}

void Graph::depend(const std::string& from, const std::string& to,
                   EdgeOptions options) {
  const std::size_t from_seq = index_of(from);
  const std::size_t to_seq = index_of(to);
  ensure(from_seq != to_seq, Errc::invalid_argument, "graph '", name,
         "': node '", from, "' cannot depend on itself");
  GraphEdge edge;
  edge.from = from_seq;
  edge.to = to_seq;
  edge.after_tasks = options.after_tasks;
  edge.conditional = options.conditional;
  edges_.push_back(edge);
}

bool Graph::has_node(const std::string& key) const {
  return index_.find(key) != index_.end();
}

std::size_t Graph::index_of(const std::string& key) const {
  const auto it = index_.find(key);
  ensure(it != index_.end(), Errc::not_found, "graph '", name, "': no node '",
         key, "'");
  return it->second;
}

void Graph::validate(
    const std::function<bool(const std::string&)>& external) const {
  std::vector<std::vector<std::size_t>> successors(nodes_.size());
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const auto& edge : edges_) {
    successors[edge.from].push_back(edge.to);
    ++indegree[edge.to];
  }

  // Cycle detection: iterative DFS with a gray/black coloring; a back
  // edge into a gray node names the cycle path off the DFS stack.
  enum class Color { white, gray, black };
  std::vector<Color> color(nodes_.size(), Color::white);
  for (std::size_t root = 0; root < nodes_.size(); ++root) {
    if (color[root] != Color::white) continue;
    // Stack of (node, next successor slot to explore).
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = Color::gray;
    while (!stack.empty()) {
      auto& [node, slot] = stack.back();
      if (slot < successors[node].size()) {
        const std::size_t next = successors[node][slot++];
        if (color[next] == Color::gray) {
          std::string path;
          bool in_cycle = false;
          for (const auto& [frame, unused] : stack) {
            (void)unused;
            in_cycle = in_cycle || frame == next;
            if (!in_cycle) continue;
            path += strutil::cat(nodes_[frame].stage.name, " -> ");
          }
          path += nodes_[next].stage.name;
          raise(Errc::invalid_argument,
                strutil::cat("graph '", name, "' has a dependency cycle: ",
                             path));
        }
        if (color[next] == Color::white) {
          color[next] = Color::gray;
          stack.emplace_back(next, 0);
        }
      } else {
        color[node] = Color::black;
        stack.pop_back();
      }
    }
  }

  // Producer check: in topological order (Kahn over node sequence, so
  // the traversal is deterministic), every consumed dataset must be
  // produced by an ancestor or admitted by the external predicate.
  std::vector<std::set<std::string>> reachable(nodes_.size());
  std::vector<std::size_t> via(nodes_.size(), SIZE_MAX);  // path naming
  std::deque<std::size_t> ready;
  for (std::size_t seq = 0; seq < nodes_.size(); ++seq) {
    if (indegree[seq] == 0) ready.push_back(seq);
  }
  while (!ready.empty()) {
    const std::size_t seq = ready.front();
    ready.pop_front();
    for (const auto& dataset : nodes_[seq].stage.consumes) {
      if (reachable[seq].count(dataset) > 0) continue;
      if (external && external(dataset)) continue;
      std::string path = nodes_[seq].stage.name;
      for (std::size_t at = via[seq]; at != SIZE_MAX; at = via[at]) {
        path = strutil::cat(nodes_[at].stage.name, " -> ", path);
      }
      raise(Errc::invalid_argument,
            strutil::cat("graph '", name, "': node '",
                         nodes_[seq].stage.name, "' (via ", path,
                         ") consumes '", dataset,
                         "', which no ancestor produces"));
    }
    std::set<std::string> downstream = reachable[seq];
    downstream.insert(nodes_[seq].stage.produces.begin(),
                      nodes_[seq].stage.produces.end());
    for (const std::size_t next : successors[seq]) {
      reachable[next].insert(downstream.begin(), downstream.end());
      if (via[next] == SIZE_MAX) via[next] = seq;
      if (--indegree[next] == 0) ready.push_back(next);
    }
  }
}

Graph Graph::from_pipeline(const Pipeline& pipeline) {
  Graph graph(pipeline.name);
  graph.placement = pipeline.placement;
  graph.task_retry_budget = pipeline.task_retry_budget;
  graph.tenant = pipeline.tenant;
  std::string previous;
  std::size_t previous_threshold = kAfterAllTasks;
  for (const Stage& stage : pipeline.stages) {
    GraphNode node;
    node.stage = stage;
    if (graph.has_node(node.stage.name)) {
      // Pipelines never needed unique stage names; key the node
      // uniquely but keep reporting the authored name.
      node.display = stage.name;
      node.stage.name = strutil::cat(stage.name, "#", graph.nodes().size());
    }
    const std::string key = node.stage.name;
    graph.add(std::move(node));
    if (!previous.empty()) {
      graph.depend(previous, key, {.after_tasks = previous_threshold});
    }
    previous = key;
    previous_threshold = stage.unblock_next_after;
  }
  return graph;
}

}  // namespace ripple::wf
