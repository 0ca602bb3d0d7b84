#include "ripple/sim/resource.hpp"

#include "ripple/common/error.hpp"

namespace ripple::sim {

SlotPool::SlotPool(EventLoop& loop, std::string name, std::size_t capacity)
    : loop_(loop), name_(std::move(name)), capacity_(capacity) {
  ensure(capacity_ > 0, Errc::invalid_argument, "slot pool '", name_,
         "' needs capacity > 0");
  last_change_ = loop_.now();
}

void SlotPool::account_utilization() {
  const SimTime now = loop_.now();
  busy_integral_ += static_cast<double>(in_use_) * (now - last_change_);
  last_change_ = now;
}

void SlotPool::acquire(std::size_t slots, GrantCallback callback) {
  ensure(slots > 0, Errc::invalid_argument, "acquire: zero slots");
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "acquire: empty callback");
  ensure(slots <= capacity_, Errc::capacity, "request of ", slots,
         " slots exceeds capacity ", capacity_, " of pool '", name_, "'");
  waiters_.push_back(Waiter{slots, loop_.now(), std::move(callback)});
  grant_waiters();
}

void SlotPool::release(Grant grant) {
  ensure(grant.valid(), Errc::invalid_argument, "release of an empty grant");
  ensure(grant.slots <= in_use_, Errc::invalid_state, "release of ",
         grant.slots, " slots exceeds in-use count ", in_use_, " of pool '",
         name_, "'");
  account_utilization();
  in_use_ -= grant.slots;
  grant_waiters();
}

void SlotPool::grant_waiters() {
  // Strict FIFO: the head blocks smaller later requests (no overtaking),
  // matching the scheduler semantics RADICAL-Pilot uses per node.
  while (!waiters_.empty() &&
         waiters_.front().slots <= capacity_ - in_use_) {
    Waiter waiter = std::move(waiters_.front());
    waiters_.pop_front();
    account_utilization();
    in_use_ += waiter.slots;
    wait_times_.add(loop_.now() - waiter.enqueued_at);
    Grant grant{next_grant_id_++, waiter.slots};
    loop_.post([callback = std::move(waiter.callback), grant] {
      callback(grant);
    });
  }
}

double SlotPool::mean_utilization() const {
  const SimTime elapsed = loop_.now() - 0.0;
  if (elapsed <= 0.0) return 0.0;
  const double integral =
      busy_integral_ +
      static_cast<double>(in_use_) * (loop_.now() - last_change_);
  return integral / (elapsed * static_cast<double>(capacity_));
}

}  // namespace ripple::sim
