#include "ripple/core/entities.hpp"

#include "ripple/common/error.hpp"

namespace ripple::core {

namespace {

template <typename State>
void check_transition(const std::string& uid, State from, State to) {
  ensure(transition_allowed(from, to), Errc::invalid_state, uid,
         ": illegal transition ", to_string(from), " -> ", to_string(to));
}

}  // namespace

Pilot::Pilot(std::string uid, PilotDescription desc,
             platform::Cluster* cluster)
    : uid_(std::move(uid)), desc_(std::move(desc)), cluster_(cluster) {
  ensure(cluster_ != nullptr, Errc::invalid_argument,
         "pilot needs a cluster");
}

void Pilot::set_state(PilotState next, double now) {
  check_transition(uid_, state_, next);
  state_ = next;
  timestamps_.enter(next, now);
}

Task::Task(std::string uid, TaskDescription desc)
    : uid_(std::move(uid)), desc_(std::move(desc)) {}

void Task::set_state(TaskState next, double now) {
  check_transition(uid_, state_, next);
  state_ = next;
  timestamps_.enter(next, now);
}

double Task::duration(TaskState from, TaskState to) const {
  const double t_from = state_time(from);
  const double t_to = state_time(to);
  ensure(t_from >= 0 && t_to >= 0, Errc::invalid_state, uid_,
         ": duration over unvisited states ", to_string(from), " -> ",
         to_string(to));
  return t_to - t_from;
}

Service::Service(std::string uid, ServiceDescription desc)
    : uid_(std::move(uid)), desc_(std::move(desc)) {}

void Service::set_state(ServiceState next, double now) {
  check_transition(uid_, state_, next);
  state_ = next;
  timestamps_.enter(next, now);
}

double Service::duration(ServiceState from, ServiceState to) const {
  const double t_from = state_time(from);
  const double t_to = state_time(to);
  ensure(t_from >= 0 && t_to >= 0, Errc::invalid_state, uid_,
         ": duration over unvisited states ", to_string(from), " -> ",
         to_string(to));
  return t_to - t_from;
}

}  // namespace ripple::core
