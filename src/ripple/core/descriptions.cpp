#include "ripple/core/descriptions.hpp"

#include "ripple/common/error.hpp"

namespace ripple::core {

void PilotDescription::validate() const {
  ensure(!platform.empty(), Errc::invalid_argument,
         "pilot description needs a platform name");
  ensure(nodes > 0, Errc::invalid_argument,
         "pilot description needs at least one node");
  ensure(walltime > 0.0, Errc::invalid_argument,
         "pilot walltime must be positive");
}

void TaskDescription::validate() const {
  ensure(!kind.empty(), Errc::invalid_argument,
         "task description needs a payload kind");
  ensure(cores > 0 || gpus > 0, Errc::invalid_argument, "task '", name,
         "' requests no resources");
  ensure(mem_gb >= 0.0, Errc::invalid_argument, "task '", name,
         "' has negative memory");
}

void ServiceDescription::validate() const {
  ensure(!program.empty(), Errc::invalid_argument,
         "service description needs a program name");
  ensure(cores > 0 || gpus > 0, Errc::invalid_argument, "service '", name,
         "' requests no resources");
  ensure(ready_timeout > 0.0, Errc::invalid_argument, "service '", name,
         "' has non-positive ready timeout");
  ensure(heartbeat_interval > 0.0, Errc::invalid_argument, "service '", name,
         "' has non-positive heartbeat interval");
  ensure(heartbeat_misses > 0, Errc::invalid_argument, "service '", name,
         "' must tolerate >= 1 heartbeat");
  ensure(max_restarts >= 0, Errc::invalid_argument, "service '", name,
         "' has negative max_restarts");
}

}  // namespace ripple::core
