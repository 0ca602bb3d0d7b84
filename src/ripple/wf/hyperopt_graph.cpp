#include "ripple/wf/hyperopt_graph.hpp"

#include <utility>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::wf {

namespace {

/// Shared between the seed node, every spawned trial/collector hook,
/// and the final report — alive as long as the run's callbacks are.
struct SearchState {
  HyperoptGraph::Config config;
  SuccessiveHalving search;
  /// The run the waves spawn into. The run owns the hooks that own this
  /// state, so the report drops the handle to break that cycle.
  std::shared_ptr<WorkflowManager::Handle> handle;
  std::string anchor;         ///< node the next wave hangs off
  std::size_t rungs = 0;      ///< waves actually spawned

  SearchState(HyperoptGraph::Config cfg, common::Rng rng)
      : config(std::move(cfg)),
        search(config.space, std::move(rng), config.initial, config.eta) {}
};

std::string trial_key(const SearchState& state, const Trial& trial) {
  return strutil::cat(state.config.name, ".trial-", trial.id);
}

/// Spawns the current rung's trial nodes plus the rung's collector
/// join node; the collector's hook advances the search and recurses.
void spawn_wave(const std::shared_ptr<SearchState>& state) {
  const auto pending = state->search.pending();
  if (pending.empty()) return;
  const std::size_t rung = state->search.current_rung();
  ++state->rungs;

  std::vector<std::string> trial_keys;
  trial_keys.reserve(pending.size());
  for (const Trial& trial : pending) {
    GraphNode node;
    node.stage.name = trial_key(*state, trial);
    node.stage.tasks.push_back(state->config.make_task(trial));
    // A bad config (or a failure-injected task) scores its penalty
    // objective; it must not fail the whole search.
    node.tolerate_failures = true;
    node.on_complete = [state, trial](const NodeOutcome& outcome) {
      state->search.report(trial.id,
                           state->config.objective(trial, outcome));
    };
    state->handle->spawn(state->anchor, std::move(node), {state->anchor});
    trial_keys.push_back(trial_key(*state, trial));
  }

  // Fan-in: the collector joins on every trial of the rung, so by the
  // time its hook runs all objectives of the rung are reported.
  GraphNode collector;
  collector.stage.name = strutil::cat(state->config.name, ".rung-", rung);
  collector.on_complete = [state](const NodeOutcome&) {
    if (!state->search.rung_complete()) return;
    if (state->search.advance_rung() > 0 && !state->search.finished()) {
      spawn_wave(state);
    }
  };
  const std::string collector_name = collector.stage.name;
  state->handle->spawn(state->anchor, std::move(collector), trial_keys);
  state->anchor = collector_name;
}

}  // namespace

std::shared_ptr<WorkflowManager::Handle> HyperoptGraph::run(
    WorkflowManager& manager, core::Pilot& pilot, Config config,
    common::Rng rng, std::function<void(const Report&)> on_done) {
  ensure(static_cast<bool>(config.make_task), Errc::invalid_argument,
         "HyperoptGraph: make_task is required");
  ensure(static_cast<bool>(config.objective), Errc::invalid_argument,
         "HyperoptGraph: objective is required");
  ensure(static_cast<bool>(on_done), Errc::invalid_argument,
         "HyperoptGraph: empty callback");
  ensure(!config.space.empty(), Errc::invalid_argument,
         "HyperoptGraph: empty parameter space");

  auto state = std::make_shared<SearchState>(std::move(config), std::move(rng));
  state->anchor = "search";

  Graph graph(state->config.name);
  GraphNode seed;
  seed.stage.name = "search";
  // The seed samples the rung-0 configs "at runtime": a short modeled
  // task anchors the timeline so its completion hook — the first
  // spawn wave — fires inside the event loop, after the run's Handle
  // exists.
  core::TaskDescription sample;
  sample.name = "sample-configs";
  sample.duration = common::Distribution::constant(1.0);
  seed.stage.tasks.push_back(std::move(sample));
  seed.on_complete = [state](const NodeOutcome&) { spawn_wave(state); };
  graph.add(std::move(seed));

  state->handle = manager.run_graph(
      std::move(graph), pilot,
      [state, on_done = std::move(on_done)](const GraphResult& result) {
        Report report;
        report.name = state->config.name;
        report.graph = result;
        report.trials = state->search.all_trials();
        report.rungs = state->rungs;
        bool any_completed = false;
        for (const auto& trial : report.trials) {
          any_completed = any_completed || trial.completed;
        }
        report.ok = result.ok && any_completed;
        if (any_completed) report.best = state->search.best();
        on_done(report);
        // The run has reported, so nothing spawns into it any more.
        state->handle.reset();
      });
  return state->handle;
}

}  // namespace ripple::wf
