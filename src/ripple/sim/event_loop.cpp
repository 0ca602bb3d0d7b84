#include "ripple/sim/event_loop.hpp"

#include <algorithm>
#include <limits>

#include "ripple/common/error.hpp"

namespace ripple::sim {

EventLoop::Key EventLoop::occupy(SimTime when, Callback&& callback) {
  std::uint32_t index = 0;
  if (free_slots_.empty()) {
    ensure(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
           Errc::capacity, "EventLoop: too many pending events");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[index].callback = std::move(callback);
  return Key{when, next_sequence_++, index};
}

EventLoop::Callback EventLoop::vacate(std::uint32_t index) {
  Slot& slot = slots_[index];
  Callback callback = std::move(slot.callback);
  slot.cancelled = false;
  if (++slot.generation != 0) free_slots_.push_back(index);
  return callback;
}

EventLoop::TimerHandle EventLoop::handle(std::uint32_t index) const noexcept {
  return TimerHandle{std::uint64_t{slots_[index].generation} << 32 | index};
}

EventLoop::TimerHandle EventLoop::call_at(SimTime when, Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "call_at: empty callback");
  ensure(when >= now_, Errc::invalid_argument, "call_at: time ", when,
         " is in the past (now=", now_, ")");
  const Key key = occupy(when, std::move(callback));
  heap_.push(key);
  peak_pending_ = std::max(peak_pending_, pending());
  return handle(key.slot);
}

EventLoop::TimerHandle EventLoop::call_after(Duration delay,
                                             Callback callback) {
  ensure(delay >= 0.0, Errc::invalid_argument, "call_after: negative delay ",
         delay);
  return call_at(now_ + delay, std::move(callback));
}

EventLoop::TimerHandle EventLoop::post(Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "post: empty callback");
  // Same-time events always run before any strictly later event, and the
  // now-queue is FIFO by construction, so an O(1) deque push preserves
  // the exact (time, sequence) order the heap would have produced.
  const Key key = occupy(now_, std::move(callback));
  now_queue_.push_back(key);
  peak_pending_ = std::max(peak_pending_, pending());
  return handle(key.slot);
}

bool EventLoop::cancel(TimerHandle handle) {
  const std::uint64_t index = handle.id & 0xffffffffu;
  const auto generation = static_cast<std::uint32_t>(handle.id >> 32);
  // Generation 0 is never issued (it covers the invalid handle). A slot
  // whose generation moved on holds a later event, or none.
  if (generation == 0 || index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.generation != generation || slot.cancelled) return false;
  // The key stays queued; skim_cancelled() drops it when it surfaces.
  slot.cancelled = true;
  ++cancelled_;
  return true;
}

void EventLoop::skim_cancelled() {
  while (!now_queue_.empty() && slots_[now_queue_.front().slot].cancelled) {
    const std::uint32_t index = now_queue_.front().slot;
    now_queue_.pop_front();
    --cancelled_;
    vacate(index);
  }
  while (!heap_.empty() && slots_[heap_.top().slot].cancelled) {
    const std::uint32_t index = heap_.top().slot;
    heap_.pop();
    --cancelled_;
    vacate(index);
  }
}

bool EventLoop::step(SimTime deadline) {
  skim_cancelled();
  // The next live event is whichever of the now-queue front and the heap
  // top comes first in the global (time, sequence) order.
  const bool have_now = !now_queue_.empty();
  const bool have_heap = !heap_.empty();
  if (!have_now && !have_heap) return false;
  const bool from_now =
      have_now && (!have_heap || Later{}(heap_.top(), now_queue_.front()));
  const Key key = from_now ? now_queue_.front() : heap_.top();
  if (key.time > deadline) return false;
  if (from_now) {
    now_queue_.pop_front();
  } else {
    heap_.pop();
  }
  // Take the callback out and free the slot before running it: the
  // callback may schedule (growing the slab) or cancel its own handle,
  // which must find the event already gone.
  Callback callback = vacate(key.slot);
  now_ = key.time;
  ++processed_;
  callback();
  return true;
}

std::size_t EventLoop::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!stopped_ && step(deadline)) ++count;
  if (deadline != std::numeric_limits<SimTime>::infinity() &&
      deadline > now_ && !stopped_) {
    now_ = deadline;
  }
  return count;
}

std::size_t EventLoop::run_for(Duration duration) {
  ensure(duration >= 0.0, Errc::invalid_argument,
         "run_for: negative duration");
  return run_until(now_ + duration);
}

}  // namespace ripple::sim
