#include "ripple/core/session.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/ids.hpp"
#include "ripple/core/failure_coordinator.hpp"

namespace ripple::core {

Session::Session(SessionConfig config)
    : config_(config),
      runtime_(config.seed),
      scheduler_(std::make_unique<Scheduler>(runtime_,
                                             config.scheduler_policy)),
      executor_(std::make_unique<Executor>(runtime_)),
      data_(std::make_unique<DataManager>(runtime_)),
      services_(std::make_unique<ServiceManager>(runtime_, *scheduler_,
                                                 *executor_)),
      tasks_(std::make_unique<TaskManager>(runtime_, *scheduler_, *executor_,
                                           *data_, *services_)),
      log_(runtime_.make_logger("session")) {
  // Data-aware backfill: the scheduler asks the data plane, live, how
  // many input bytes a queued request would still have to move. The
  // hook keeps core/ decoupled from data/ (the scheduler only sees a
  // std::function).
  scheduler_->set_locality_oracle(
      [this](const std::vector<std::string>& datasets,
             const std::string& zone) {
        return data_->bytes_required(datasets, zone);
      });
  failures_ = std::make_unique<FailureCoordinator>(*this);
  if (config.tracing) enable_tracing(config.gauge_tick);
}

void Session::enable_tracing(double gauge_tick) {
  runtime_.tracer().set_enabled(true);
  auto& counters = runtime_.counters();
  if (counters.enabled()) return;  // gauges already registered
  counters.set_enabled(true);
  counters.register_gauge("loop.pending", [this] {
    return static_cast<double>(runtime_.loop().pending());
  });
  counters.register_gauge("loop.peak_pending", [this] {
    return static_cast<double>(runtime_.loop().peak_pending());
  });
  counters.register_gauge("loop.events", [this] {
    return static_cast<double>(runtime_.loop().events_processed());
  });
  counters.register_gauge("sched.waiting", [this] {
    return static_cast<double>(scheduler_->waiting_total());
  });
  counters.register_gauge("data.live_transfers", [this] {
    return static_cast<double>(data_->engine().live());
  });
  counters.register_gauge("data.bytes_moved", [this] {
    return data_->engine().bytes_moved();
  });
  counters.register_gauge("store.used_bytes", [this] {
    double used = 0.0;
    for (const std::string& zone : data_->catalog().store_zones()) {
      used += data_->catalog().store(zone).used;
    }
    return used;
  });
  counters.arm_sampling(runtime_.loop(), gauge_tick);
}

Session::~Session() = default;

platform::Cluster& Session::add_platform(
    const platform::PlatformProfile& profile) {
  ensure(clusters_.count(profile.name) == 0, Errc::invalid_state, "platform '",
         profile.name, "' already added");
  auto cluster = std::make_unique<platform::Cluster>(
      runtime_.loop(), runtime_.network(), profile,
      runtime_.rng().fork("cluster." + profile.name));
  auto& ref = *cluster;
  clusters_.emplace(profile.name, std::move(cluster));

  // Wire WAN links among all platforms added so far.
  std::vector<platform::Cluster*> all;
  all.reserve(clusters_.size());
  for (auto& [name, c] : clusters_) all.push_back(c.get());
  platform::connect_clusters(runtime_.network(), all);
  return ref;
}

platform::Cluster& Session::cluster(const std::string& name) {
  const auto it = clusters_.find(name);
  ensure(it != clusters_.end(), Errc::not_found, "unknown platform '", name,
         "'");
  return *it->second;
}

bool Session::has_cluster(const std::string& name) const {
  return clusters_.count(name) != 0;
}

std::vector<std::string> Session::cluster_names() const {
  std::vector<std::string> names;
  names.reserve(clusters_.size());
  for (const auto& [name, cluster] : clusters_) names.push_back(name);
  return names;
}

void Session::set_tenant_weight(const std::string& tenant, double weight) {
  scheduler_->set_tenant_weight(tenant, weight);
  data_->engine().set_tenant_weight(tenant, weight);
}

void Session::set_tenant_store_quota(const std::string& zone,
                                     const std::string& tenant,
                                     double bytes) {
  data_->catalog().set_tenant_quota(zone, tenant, bytes);
}

void Session::set_tenant_link_quota(const std::string& tenant, double bytes) {
  data_->engine().set_tenant_link_quota(tenant, bytes);
}

Pilot& Session::submit_pilot(const PilotDescription& desc) {
  desc.validate();
  platform::Cluster& target = cluster(desc.platform);
  const std::string uid = runtime_.make_uid("pilot");
  auto pilot = std::make_unique<Pilot>(uid, desc, &target);
  pilot->nodes() = target.reserve_nodes(desc.nodes);
  Pilot& ref = *pilot;
  const metrics::Timeline::EntityId entity =
      runtime_.add_entity("pilot", uid, to_string(PilotState::created));
  pilots_.emplace(uid, PilotEntry{std::move(pilot), entity});

  scheduler_->add_pilot(ref);
  // The pilot agent becomes active asynchronously (queue wait and agent
  // boot are not measured by the paper's experiments; submissions are
  // accepted immediately and scheduled once slots exist).
  runtime_.loop().post([this, &ref, entity] {
    ref.set_state(PilotState::active, runtime_.loop().now());
    runtime_.publish_state(entity, to_string(PilotState::active));
  });
  return ref;
}

Session::PilotEntry& Session::pilot_entry(const std::string& uid) {
  const auto it = pilots_.find(uid);
  ensure(it != pilots_.end(), Errc::not_found, "unknown pilot '", uid, "'");
  return it->second;
}

Pilot& Session::pilot(const std::string& uid) {
  return *pilot_entry(uid).pilot;
}

std::vector<std::string> Session::pilot_uids() const {
  std::vector<std::string> out;
  out.reserve(pilots_.size());
  for (const auto& [uid, pilot] : pilots_) out.push_back(uid);
  return out;
}

void Session::close_pilot(const std::string& uid) {
  const PilotEntry& entry = pilot_entry(uid);
  Pilot& p = *entry.pilot;
  ensure(!is_terminal(p.state()), Errc::invalid_state, "pilot ", uid,
         " already terminal");
  scheduler_->remove_pilot(uid);
  p.cluster().release_nodes(p.nodes());
  p.set_state(PilotState::done, runtime_.loop().now());
  runtime_.publish_state(entry.timeline, to_string(PilotState::done));
}

void Session::fail_pilot(const std::string& uid) {
  const PilotEntry& entry = pilot_entry(uid);
  Pilot& p = *entry.pilot;
  if (is_terminal(p.state())) return;  // lost a race with close/failure
  // Survivors, in deterministic map order: the candidates every
  // interrupted task may be re-bound to.
  std::vector<Pilot*> survivors;
  for (auto& [other_uid, other] : pilots_) {
    if (other_uid != uid && !is_terminal(other.pilot->state())) {
      survivors.push_back(other.pilot.get());
    }
  }
  scheduler_->remove_pilot(uid);
  p.cluster().release_nodes(p.nodes());
  p.set_state(PilotState::failed, runtime_.loop().now());
  runtime_.publish_state(entry.timeline, to_string(PilotState::failed));
  tasks_->handle_pilot_loss(uid, survivors);
}

std::size_t Session::run() { return runtime_.loop().run(); }

std::size_t Session::run_until(sim::SimTime deadline) {
  return runtime_.loop().run_until(deadline);
}

sim::SimTime Session::now() const noexcept {
  return const_cast<Runtime&>(runtime_).loop().now();
}

json::Value Session::summary() const {
  auto& self = const_cast<Session&>(*this);
  json::Value out = json::Value::object();
  out.set("seed", config_.seed);
  out.set("now", self.now());
  out.set("events", self.loop().events_processed());
  out.set("messages", self.runtime().network().messages_delivered());

  json::Value task_states = json::Value::object();
  for (const TaskState s :
       {TaskState::created, TaskState::waiting, TaskState::scheduling,
        TaskState::running, TaskState::done, TaskState::failed,
        TaskState::canceled}) {
    const std::size_t n = self.tasks().count_in_state(s);
    if (n > 0) task_states.set(to_string(s), n);
  }
  out.set("tasks", std::move(task_states));

  json::Value svc_states = json::Value::object();
  for (const ServiceState s :
       {ServiceState::created, ServiceState::scheduling,
        ServiceState::running, ServiceState::draining, ServiceState::stopped,
        ServiceState::failed, ServiceState::canceled}) {
    const std::size_t n = self.services().count_in_state(s);
    if (n > 0) svc_states.set(to_string(s), n);
  }
  out.set("services", std::move(svc_states));
  return out;
}

}  // namespace ripple::core
