#include "ripple/platform/node.hpp"

#include "ripple/common/error.hpp"

namespace ripple::platform {

json::Value NodeSpec::to_json() const {
  json::Value out = json::Value::object();
  out.set("cores", cores);
  out.set("gpus", gpus);
  out.set("mem_gb", mem_gb);
  return out;
}

Node::Node(std::string id, NodeSpec spec, sim::HostId host)
    : id_(std::move(id)),
      spec_(spec),
      host_(std::move(host)),
      free_cores_(spec.cores),
      free_gpus_(spec.gpus),
      free_mem_gb_(spec.mem_gb) {}

bool Node::can_fit(std::size_t cores, std::size_t gpus,
                   double mem_gb) const noexcept {
  return alive_ && cores <= free_cores_ && gpus <= free_gpus_ &&
         mem_gb <= free_mem_gb_;
}

void Node::set_speed_factor(double factor) {
  ensure(factor > 0.0, Errc::invalid_argument, "node ", id_,
         ": speed factor must be positive");
  speed_factor_ = factor;
}

void Node::fail() {
  if (!alive_) return;
  alive_ = false;
  ++incarnation_;
  speed_factor_ = 1.0;
  free_cores_ = 0;
  free_gpus_ = 0;
  free_mem_gb_ = 0.0;
  notify();
}

void Node::restore() {
  if (alive_) return;
  alive_ = true;
  speed_factor_ = 1.0;
  free_cores_ = spec_.cores;
  free_gpus_ = spec_.gpus;
  free_mem_gb_ = spec_.mem_gb;
  notify();
}

Slot Node::allocate(std::size_t cores, std::size_t gpus, double mem_gb) {
  ensure(can_fit(cores, gpus, mem_gb), Errc::invalid_state, "node ", id_,
         ": allocation (", cores, "c/", gpus, "g/", mem_gb,
         "GB) does not fit (free ", free_cores_, "c/", free_gpus_, "g/",
         free_mem_gb_, "GB)");
  free_cores_ -= cores;
  free_gpus_ -= gpus;
  free_mem_gb_ -= mem_gb;
  notify();
  return Slot{id_, cores, gpus, mem_gb, incarnation_};
}

void Node::release(const Slot& slot) {
  ensure(slot.node_id == id_, Errc::invalid_argument, "slot for node ",
         slot.node_id, " released on node ", id_);
  // Stale slot from before a crash: its capacity died with the node.
  if (slot.incarnation != incarnation_) return;
  const bool held = free_cores_ + slot.cores <= spec_.cores &&
                    free_gpus_ + slot.gpus <= spec_.gpus;
  ensure(held, Errc::invalid_state, "double release on node ", id_);
  free_cores_ += slot.cores;
  free_gpus_ += slot.gpus;
  free_mem_gb_ += slot.mem_gb;
  notify();
}

}  // namespace ripple::platform
