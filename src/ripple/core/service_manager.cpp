#include "ripple/core/service_manager.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"
#include "ripple/common/ids.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::core {

namespace {
constexpr sim::Duration kPublishRpcTimeout = 30.0;
constexpr sim::Duration kDrainPollInterval = 0.05;

/// Whether `service` passes a query's name filter ("" passes all).
bool named(const Service& service, const std::string& filter) {
  return filter.empty() || service.description().name == filter;
}
}  // namespace

ServiceManager::ServiceManager(Runtime& runtime, Scheduler& scheduler,
                               Executor& executor)
    : runtime_(runtime),
      scheduler_(scheduler),
      executor_(executor),
      rng_(runtime.rng().fork("service_manager")),
      log_(runtime.make_logger("service_manager")) {}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::vector<std::string> ServiceManager::endpoints(
    const std::string& name_filter) const {
  std::vector<std::string> out;
  for (const std::string& uid : running(name_filter)) {
    out.push_back(services_.at(uid).service.endpoint());
  }
  return out;
}

std::vector<std::string> ServiceManager::running(
    const std::string& name_filter) const {
  std::vector<std::string> out;
  for (const EntityId id : services_.in_uid_order()) {
    const Service& service = services_[id].service;
    if (service.state() != ServiceState::running) continue;
    if (!named(service, name_filter)) continue;
    out.push_back(service.uid());
  }
  return out;
}

std::size_t ServiceManager::count_active(
    const std::string& name_filter) const {
  std::size_t n = 0;
  for (const Active& active : services_) {
    if (is_terminal(active.service.state())) continue;
    if (!named(active.service, name_filter)) continue;
    ++n;
  }
  return n;
}

std::size_t ServiceManager::total_outstanding(
    const std::string& name_filter) const {
  std::size_t n = 0;
  for (const Active& active : services_) {
    if (active.service.state() != ServiceState::running) continue;
    if (!named(active.service, name_filter)) continue;
    if (active.program) n += active.program->outstanding();
  }
  return n;
}

std::size_t ServiceManager::outstanding_of(const std::string& uid) const {
  const Active& active = services_.at(uid);
  return active.program ? active.program->outstanding() : 0;
}

double ServiceManager::window_latency_quantile(
    const std::string& name_filter, double q) const {
  const sim::SimTime now = runtime_.loop().now();
  std::vector<double> samples;
  for (const Active& active : services_) {
    if (active.service.state() != ServiceState::running) continue;
    if (!named(active.service, name_filter)) continue;
    if (active.program) {
      active.program->collect_window_latencies(now, samples);
    }
  }
  if (samples.empty()) return -1.0;
  std::sort(samples.begin(), samples.end());
  return common::quantile_sorted(samples, q);
}

std::size_t ServiceManager::count_bootstrapping(
    const std::string& pilot_uid) const {
  std::size_t n = 0;
  for (const Active& active : services_) {
    if (active.service.pilot_uid() != pilot_uid) continue;
    switch (active.service.state()) {
      case ServiceState::scheduling:
      case ServiceState::scheduled:
      case ServiceState::launching:
      case ServiceState::initializing:
      case ServiceState::publishing: ++n; break;
      default: break;
    }
  }
  return n;
}

ServiceProgram* ServiceManager::program(const std::string& uid) {
  return services_.at(uid).program.get();
}

json::Value ServiceManager::stats(const std::string& uid) const {
  const Active& active = services_.at(uid);
  json::Value out = json::Value::object();
  out.set("uid", uid);
  out.set("name", active.service.description().name);
  out.set("state", to_string(active.service.state()));
  out.set("endpoint", active.service.endpoint());
  out.set("remote", active.service.remote());
  out.set("restarts", active.service.restarts());
  if (active.service.bootstrap().complete()) {
    json::Value boot = json::Value::object();
    boot.set("launch", active.service.bootstrap().launch);
    boot.set("init", active.service.bootstrap().init);
    boot.set("publish", active.service.bootstrap().publish);
    boot.set("total", active.service.bootstrap().total());
    out.set("bootstrap", std::move(boot));
  }
  if (active.program) out.set("program", active.program->stats());
  return out;
}

// ---------------------------------------------------------------------------
// State bookkeeping
// ---------------------------------------------------------------------------

ServiceManager::Active& ServiceManager::add(std::string uid,
                                            ServiceDescription desc) {
  Active& active =
      services_[services_.emplace(std::move(uid), std::move(desc))];
  if (transition_listener_) transition_listener_();
  active.timeline = runtime_.add_entity(
      "service", active.uid(), to_string(ServiceState::created));
  return active;
}

void ServiceManager::set_state(Active& active, ServiceState state) {
  const ServiceState previous = active.service.state();
  active.service.set_state(state, runtime_.loop().now());
  if (transition_listener_) transition_listener_();
  runtime_.publish_state(active.timeline, to_string(state));
  // Endpoint registry events: entering RUNNING registers the endpoint,
  // leaving it (drain, stop, failure) deregisters it. Subscribers
  // (balancing clients, the autoscaler) reroute traffic accordingly.
  if (previous != ServiceState::running &&
      state == ServiceState::running) {
    publish_endpoint_event(active, /*up=*/true);
  } else if (previous == ServiceState::running &&
             state != ServiceState::running) {
    publish_endpoint_event(active, /*up=*/false);
  }
  recheck_watchers();
}

void ServiceManager::publish_endpoint_event(const Active& active, bool up) {
  // Directory first (synchronous), event second (asynchronous): late
  // subscribers snapshot the directory and cannot miss this change.
  if (up) {
    runtime_.register_endpoint(active.service.description().name,
                               active.service.endpoint());
  } else {
    runtime_.deregister_endpoint(active.service.description().name,
                                 active.service.endpoint());
  }
  json::Value event = json::Value::object();
  event.set("name", active.service.description().name);
  event.set("uid", active.service.uid());
  event.set("endpoint", active.service.endpoint());
  event.set("up", up);
  runtime_.pubsub().publish("endpoints", std::move(event));
}

void ServiceManager::recheck_watchers() {
  for (std::size_t i = 0; i < watchers_.size();) {
    ReadyWatcher& watcher = watchers_[i];
    bool all_running = true;
    bool any_terminal = false;
    for (const auto& uid : watcher.uids) {
      const ServiceState state = get(uid).state();
      if (state != ServiceState::running) all_running = false;
      if (is_terminal(state)) any_terminal = true;
    }
    if (all_running || any_terminal) {
      auto callback = std::move(watcher.on_ready);
      watchers_.erase(watchers_.begin() +
                      static_cast<std::ptrdiff_t>(i));
      const bool ok = all_running;
      runtime_.loop().post([callback = std::move(callback), ok] {
        callback(ok);
      });
    } else {
      ++i;
    }
  }
}

void ServiceManager::when_ready(std::vector<std::string> uids,
                                std::function<void(bool)> on_ready) {
  ensure(static_cast<bool>(on_ready), Errc::invalid_argument,
         "when_ready: empty callback");
  for (const auto& uid : uids) {
    ensure(exists(uid), Errc::not_found, "when_ready: unknown service '", uid,
           "'");
  }
  watchers_.push_back(ReadyWatcher{std::move(uids), std::move(on_ready)});
  recheck_watchers();
}

// ---------------------------------------------------------------------------
// Registry endpoint (per cluster)
// ---------------------------------------------------------------------------

void ServiceManager::ensure_registry(platform::Cluster& cluster) {
  if (registries_.count(cluster.name()) == 0) {
    const std::string address = "svcmgr." + cluster.name();
    auto server = std::make_unique<msg::RpcServer>(
        runtime_.router(), address, cluster.head_host());
    server->bind_method(
        "register_endpoint",
        [](std::shared_ptr<msg::Responder> responder) {
          // Registration is acknowledged; the manager's own bookkeeping
          // happens when the publish RPC completes on the service side.
          responder->reply(json::Value::object({{"ok", true}}));
        });
    server->bind_method(
        "heartbeat", [this](std::shared_ptr<msg::Responder> responder) {
          const std::string uid =
              responder->request().payload.get_or("uid", json::Value(""))
                  .as_string();
          if (services_.exists(uid)) {
            services_.at(uid).service.set_last_heartbeat(runtime_.loop().now());
            arm_liveness_deadline(uid);
          }
          responder->reply(json::Value::object({{"ok", true}}));
        });
    registries_.emplace(cluster.name(), std::move(server));
  }
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

std::string ServiceManager::create_service(Pilot& pilot,
                                           ServiceDescription desc) {
  desc.validate();
  ensure(executor_.programs().has(desc.program), Errc::not_found,
         "service program '", desc.program, "' is not registered");
  const std::string uid = runtime_.make_uid("svc");
  ensure_registry(pilot.cluster());
  Active& active = add(uid, std::move(desc));
  active.service.set_pilot_uid(pilot.uid());
  active.pilot = &pilot;
  active.cluster = &pilot.cluster();

  // Readiness timeout covers the whole bootstrap.
  active.ready_timer = runtime_.loop().call_after(
      active.service.description().ready_timeout, [this, uid] {
        const ServiceState state = services_.at(uid).state();
        if (state == ServiceState::running || is_terminal(state)) return;
        fail_service(uid, "ready timeout exceeded");
      });
  return uid;
}

std::string ServiceManager::submit(Pilot& pilot, ServiceDescription desc) {
  const std::string uid = create_service(pilot, std::move(desc));
  // Enter the scheduler asynchronously (symmetric with TaskManager):
  // submission order across managers is preserved by the event loop.
  runtime_.loop().post([this, uid] {
    if (services_.at(uid).state() != ServiceState::created) return;
    begin_scheduling(uid);
  });
  return uid;
}

std::vector<std::string> ServiceManager::submit_all(
    Pilot& pilot, std::vector<ServiceDescription> descs) {
  std::vector<std::string> out;
  out.reserve(descs.size());
  // Posted even when a later description throws — already-created
  // services have ready timers armed and must still enter the
  // scheduler, as they would under per-service submission.
  const auto post_batch = [this, &pilot](std::vector<std::string> uids) {
    if (uids.empty()) return;
    runtime_.loop().post([this, &pilot, uids = std::move(uids)] {
      begin_scheduling_batch(pilot, uids);
    });
  };
  try {
    for (auto& desc : descs) {
      out.push_back(create_service(pilot, std::move(desc)));
    }
  } catch (...) {
    post_batch(out);
    throw;
  }
  post_batch(out);
  return out;
}

ScheduleRequest ServiceManager::make_request(const std::string& uid,
                                             Active& active) {
  const ServiceDescription& desc = active.service.description();
  ScheduleRequest request;
  request.uid = uid;
  request.cores = desc.cores;
  request.gpus = desc.gpus;
  request.mem_gb = desc.mem_gb;
  request.priority = desc.priority;
  request.tenant = desc.tenant;
  request.granted = [this, uid](platform::Slot slot, platform::Node* node) {
    on_granted(uid, std::move(slot), node);
  };
  return request;
}

bool ServiceManager::enter_scheduling(const std::string& uid,
                                      Active& active) {
  // Oversized services fail individually: this runs inside an
  // event-loop callback, where a Scheduler::submit throw would abort
  // the run, and Scheduler::submit_all validates a whole batch up
  // front, where one impossible request must not strand its siblings.
  const ServiceDescription& desc = active.service.description();
  if (!scheduler_.fits_pilot(active.pilot->uid(), desc.cores, desc.gpus,
                             desc.mem_gb)) {
    fail_service(uid, strutil::cat("request (", desc.cores, "c/",
                                   desc.gpus,
                                   "g) cannot fit any node of pilot ",
                                   active.pilot->uid()));
    return false;
  }
  set_state(active, ServiceState::scheduling);
  return true;
}

void ServiceManager::begin_scheduling(const std::string& uid) {
  Active& active = services_.at(uid);
  if (enter_scheduling(uid, active)) {
    active.ticket =
        scheduler_.submit(active.pilot->uid(), make_request(uid, active));
  }
}

void ServiceManager::begin_scheduling_batch(
    Pilot& pilot, const std::vector<std::string>& uids) {
  std::vector<Active*> queued;
  std::vector<ScheduleRequest> requests;
  queued.reserve(uids.size());
  requests.reserve(uids.size());
  for (const auto& uid : uids) {
    Active& active = services_.at(uid);
    if (active.state() != ServiceState::created) continue;
    if (enter_scheduling(uid, active)) {
      queued.push_back(&active);
      requests.push_back(make_request(uid, active));
    }
  }
  if (requests.empty()) return;
  const std::vector<Scheduler::Ticket> tickets =
      scheduler_.submit_all(pilot.uid(), std::move(requests));
  for (std::size_t i = 0; i < queued.size(); ++i) {
    queued[i]->ticket = tickets[i];
  }
}

void ServiceManager::on_granted(const std::string& uid, platform::Slot slot,
                                platform::Node* node) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) {
    // Canceled while queued but after grant was posted: give it back.
    scheduler_.release(active.pilot->uid(), slot);
    return;
  }
  active.ticket.reset();
  active.service.set_slot(std::move(slot));
  active.slot_held = true;
  active.host = node->host();
  set_state(active, ServiceState::scheduled);

  set_state(active, ServiceState::launching);
  active.cohort_at_launch = count_bootstrapping(active.pilot->uid());
  executor_.launch(*active.cluster, active.cohort_at_launch,
                   [this, uid](sim::Duration) { on_launched(uid); });
}

json::Value ServiceManager::contention_config(const Active& active) const {
  // Injected knobs that let programs model shared-filesystem contention
  // during concurrent model loads (Fig. 3: init under 640 loaders).
  json::Value config = active.service.description().config;
  std::size_t initializing = 0;
  for (const Active& other : services_) {
    if (other.service.pilot_uid() == active.service.pilot_uid() &&
        other.service.state() == ServiceState::initializing) {
      ++initializing;
    }
  }
  const auto& profile = active.cluster->profile();
  config.set("concurrent_inits", initializing + 1);
  config.set("fs_contention_coeff", profile.fs_contention_coeff);
  config.set("fs_contention_threshold", profile.fs_contention_threshold);
  return config;
}

void ServiceManager::on_launched(const std::string& uid) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) return;
  set_state(active, ServiceState::initializing);

  active.program =
      executor_.programs().create(active.service.description());
  active.ctx = std::make_unique<ExecutionContext>(executor_.make_context(
      uid, active.host, contention_config(active)));
  active.program->init(
      *active.ctx, [this, uid] { on_initialized(uid); },
      [this, uid](const std::string& error) {
        fail_service(uid, strutil::cat("program init failed: ", error));
      });
}

void ServiceManager::on_initialized(const std::string& uid) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) return;
  set_state(active, ServiceState::publishing);

  active.server = std::make_unique<msg::RpcServer>(runtime_.router(), uid,
                                                   active.host);
  active.program->bind(*active.server);
  active.server->bind_method(
      "health", [this, uid](std::shared_ptr<msg::Responder> responder) {
        json::Value body = json::Value::object();
        body.set("ok", !services_.at(uid).crashed);
        responder->reply(std::move(body));
      });

  // Endpoint publication: local socket/registry setup overhead followed
  // by the registration round-trip to the manager's registry endpoint.
  const sim::Duration overhead =
      active.cluster->profile().endpoint_publish.sample(rng_);
  runtime_.loop().call_after(overhead,
                             [this, uid] { do_publish(uid); });
}

void ServiceManager::do_publish(const std::string& uid) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) return;

  active.pub_client = std::make_unique<msg::RpcClient>(
      runtime_.router(), uid + ".pub", active.host);
  json::Value args = json::Value::object();
  args.set("uid", uid);
  args.set("endpoint", uid);
  args.set("name", active.service.description().name);
  active.pub_client->call(
      "svcmgr." + active.cluster->name(), "register_endpoint",
      std::move(args),
      [this, uid](msg::CallResult result) {
        if (is_terminal(services_.at(uid).state())) return;
        if (!result.ok) {
          fail_service(uid, strutil::cat("endpoint publication failed: ",
                                         result.error));
          return;
        }
        on_published(uid);
      },
      kPublishRpcTimeout);
}

void ServiceManager::on_published(const std::string& uid) {
  Active& active = services_.at(uid);
  active.pub_client.reset();
  if (active.ready_timer.valid()) {
    runtime_.loop().cancel(active.ready_timer);
    active.ready_timer = {};
  }
  active.service.set_endpoint(uid);
  set_state(active, ServiceState::running);

  // Record the bootstrap decomposition (Fig. 3).
  BootstrapTiming& boot = active.service.bootstrap();
  boot.launch = active.service.duration(ServiceState::launching,
                                         ServiceState::initializing);
  boot.init = active.service.duration(ServiceState::initializing,
                                       ServiceState::publishing);
  boot.publish = active.service.duration(ServiceState::publishing,
                                          ServiceState::running);
  runtime_.metrics().add_bootstrap(metrics::BootstrapRecord{
      uid, boot.launch, boot.init, boot.publish, active.cohort_at_launch});

  if (active.service.description().monitor) start_monitoring(uid);
}

// ---------------------------------------------------------------------------
// Remote services
// ---------------------------------------------------------------------------

std::string ServiceManager::register_remote(platform::Cluster& cluster,
                                            ServiceDescription desc,
                                            std::size_t node_index) {
  desc.validate();
  ensure(executor_.programs().has(desc.program), Errc::not_found,
         "service program '", desc.program, "' is not registered");
  ensure(node_index < cluster.node_count(), Errc::invalid_argument,
         "node index ", node_index, " out of range for ", cluster.name());
  const std::string uid = runtime_.make_uid("svc");
  Active& stored = add(uid, std::move(desc));
  stored.service.set_remote(true);
  stored.cluster = &cluster;
  stored.host = cluster.node(node_index).host();
  stored.program =
      executor_.programs().create(stored.service.description());
  stored.ctx = std::make_unique<ExecutionContext>(executor_.make_context(
      uid, stored.host, stored.service.description().config));
  // Like on_launched and on_initialized, the init callbacks do nothing
  // once the service is terminal (stopped or failed while loading).
  stored.program->init(
      *stored.ctx,
      [this, uid] {
        Active& active = services_.at(uid);
        if (is_terminal(active.service.state())) return;
        active.server = std::make_unique<msg::RpcServer>(
            runtime_.router(), uid, active.host);
        active.program->bind(*active.server);
        active.service.set_endpoint(uid);
        set_state(active, ServiceState::running);
      },
      [this, uid](const std::string& error) {
        fail_service(uid, strutil::cat("remote init failed: ", error));
      });
  return uid;
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

void ServiceManager::start_monitoring(const std::string& uid) {
  Active& active = services_.at(uid);
  active.hb_client = std::make_unique<msg::RpcClient>(
      runtime_.router(), uid + ".hb", active.host);
  active.service.set_last_heartbeat(runtime_.loop().now());
  schedule_heartbeat(uid);
  arm_liveness_deadline(uid);
}

void ServiceManager::schedule_heartbeat(const std::string& uid) {
  Active& active = services_.at(uid);
  const sim::Duration interval =
      active.service.description().heartbeat_interval;
  active.hb_send_timer = runtime_.loop().call_after(interval, [this, uid] {
    Active& active = services_.at(uid);
    if (active.service.state() != ServiceState::running &&
        active.service.state() != ServiceState::draining) {
      return;
    }
    if (active.crashed || !active.hb_client) return;
    json::Value args = json::Value::object();
    args.set("uid", uid);
    active.hb_client->call(
        "svcmgr." + active.cluster->name(), "heartbeat", std::move(args),
        [](msg::CallResult) { /* delivery is what matters */ },
        active.service.description().heartbeat_interval);
    schedule_heartbeat(uid);
  });
}

void ServiceManager::arm_liveness_deadline(const std::string& uid) {
  Active& active = services_.at(uid);
  if (active.hb_deadline_timer.valid()) {
    runtime_.loop().cancel(active.hb_deadline_timer);
  }
  const ServiceDescription& desc = active.service.description();
  const sim::Duration window =
      desc.heartbeat_interval * static_cast<double>(desc.heartbeat_misses);
  active.hb_deadline_timer = runtime_.loop().call_after(
      window, [this, uid] { on_liveness_timeout(uid); });
}

void ServiceManager::on_liveness_timeout(const std::string& uid) {
  Active& active = services_.at(uid);
  if (active.service.state() != ServiceState::running &&
      active.service.state() != ServiceState::draining) {
    return;
  }
  log_.warn(uid, ": liveness timeout");
  fail_service(uid, "liveness timeout: heartbeats missed");
}

// ---------------------------------------------------------------------------
// Failure, restart, stop, kill
// ---------------------------------------------------------------------------

void ServiceManager::release_resources(Active& active) {
  if (active.ready_timer.valid()) {
    runtime_.loop().cancel(active.ready_timer);
    active.ready_timer = {};
  }
  if (active.hb_send_timer.valid()) {
    runtime_.loop().cancel(active.hb_send_timer);
    active.hb_send_timer = {};
  }
  if (active.hb_deadline_timer.valid()) {
    runtime_.loop().cancel(active.hb_deadline_timer);
    active.hb_deadline_timer = {};
  }
  active.server.reset();
  active.pub_client.reset();
  active.hb_client.reset();
  if (active.slot_held && active.pilot != nullptr) {
    scheduler_.release(active.pilot->uid(), active.service.slot());
    active.slot_held = false;
  }
}

void ServiceManager::drop_request(Active& active) {
  // Only a local service waiting for its grant has a request queued.
  if (active.ticket && scheduler_.has_pilot(active.pilot->uid())) {
    scheduler_.cancel(active.pilot->uid(), *active.ticket);
  }
  active.ticket.reset();
}

void ServiceManager::fail_service(const std::string& uid,
                                  const std::string& error) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) return;
  log_.error(uid, ": ", error);
  active.service.set_error(error);
  release_resources(active);
  active.program.reset();
  active.ctx.reset();
  set_state(active, ServiceState::failed);

  const ServiceDescription& desc = active.service.description();
  if (!active.service.remote() && desc.restart_on_failure &&
      active.service.restarts() < desc.max_restarts) {
    active.service.count_restart();
    active.crashed = false;
    log_.info(uid, ": restarting (attempt ", active.service.restarts(), ")");
    // The failed attempt's request must not be granted to the restart.
    drop_request(active);
    active.ready_timer = runtime_.loop().call_after(
        desc.ready_timeout, [this, uid] {
          const ServiceState state = services_.at(uid).state();
          if (state == ServiceState::running || is_terminal(state)) return;
          fail_service(uid, "ready timeout exceeded (restart)");
        });
    begin_scheduling(uid);
  }
}

void ServiceManager::kill(const std::string& uid) {
  Active& active = services_.at(uid);
  ensure(active.service.state() == ServiceState::running, Errc::invalid_state,
         "kill: service ", uid, " is not running");
  active.crashed = true;
  active.server.reset();  // endpoint disappears from the router
  if (active.hb_send_timer.valid()) {
    runtime_.loop().cancel(active.hb_send_timer);
    active.hb_send_timer = {};
  }
  log_.warn(uid, ": killed (fault injection)");
}

void ServiceManager::stop(const std::string& uid,
                          std::function<void()> on_stopped) {
  Active& active = services_.at(uid);
  const ServiceState state = active.service.state();
  if (is_terminal(state)) {
    if (on_stopped) runtime_.loop().post(std::move(on_stopped));
    return;
  }
  if (state != ServiceState::running && state != ServiceState::draining) {
    // Still bootstrapping: cancel.
    drop_request(active);
    release_resources(active);
    active.program.reset();
    set_state(active, ServiceState::canceled);
    if (on_stopped) runtime_.loop().post(std::move(on_stopped));
    return;
  }
  if (state == ServiceState::running) {
    set_state(active, ServiceState::draining);
  }
  finalize_stop(uid, std::move(on_stopped));
}

void ServiceManager::finalize_stop(const std::string& uid,
                                   std::function<void()> on_stopped) {
  Active& active = services_.at(uid);
  if (is_terminal(active.service.state())) {
    if (on_stopped) runtime_.loop().post(std::move(on_stopped));
    return;
  }
  const std::size_t outstanding =
      active.program ? active.program->outstanding() : 0;
  if (outstanding > 0) {
    runtime_.loop().call_after(
        kDrainPollInterval,
        [this, uid, on_stopped = std::move(on_stopped)]() mutable {
          finalize_stop(uid, std::move(on_stopped));
        });
    return;
  }
  release_resources(active);
  set_state(active, ServiceState::stopped);
  if (on_stopped) runtime_.loop().post(std::move(on_stopped));
}

void ServiceManager::stop_all(std::function<void()> on_all_stopped) {
  std::vector<std::string> to_stop;
  for (const EntityId id : services_.in_uid_order()) {
    const Service& service = services_[id].service;
    if (!is_terminal(service.state())) to_stop.push_back(service.uid());
  }
  if (to_stop.empty()) {
    if (on_all_stopped) runtime_.loop().post(std::move(on_all_stopped));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(to_stop.size());
  auto shared_callback = std::make_shared<std::function<void()>>(
      std::move(on_all_stopped));
  for (const auto& uid : to_stop) {
    stop(uid, [remaining, shared_callback] {
      if (--(*remaining) == 0 && *shared_callback) (*shared_callback)();
    });
  }
}

}  // namespace ripple::core
