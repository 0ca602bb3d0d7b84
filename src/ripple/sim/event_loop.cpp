#include "ripple/sim/event_loop.hpp"

#include <algorithm>
#include <limits>

#include "ripple/common/error.hpp"

namespace ripple::sim {

EventLoop::TimerHandle EventLoop::call_at(SimTime when, Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "call_at: empty callback");
  ensure(when >= now_, Errc::invalid_argument, "call_at: time ", when,
         " is in the past (now=", now_, ")");
  const std::uint64_t id = next_id_++;
  heap_.push(Event{when, next_sequence_++, id, std::move(callback)});
  live_.insert(id);
  peak_pending_ = std::max(peak_pending_, pending());
  return TimerHandle{id};
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
  const std::uint64_t id = next_id_++;
  now_queue_.push_back(Event{now_, next_sequence_++, id, std::move(callback)});
  live_.insert(id);
  peak_pending_ = std::max(peak_pending_, pending());
  return TimerHandle{id};
}

void EventLoop::post_external(Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "post_external: empty callback");
  {
    std::lock_guard lock(external_mutex_);
    external_.push_back(std::move(callback));
  }
  has_external_.store(true, std::memory_order_release);
}

void EventLoop::drain_external() {
  if (!has_external_.load(std::memory_order_acquire)) return;
  std::deque<Callback> drained;
  {
    std::lock_guard lock(external_mutex_);
    drained.swap(external_);
    has_external_.store(false, std::memory_order_relaxed);
  }
  // Ids and sequences are assigned on the loop thread, in drain order,
  // so once an external callback is in, it behaves exactly like a
  // post()ed event.
  for (Callback& callback : drained) {
    post(std::move(callback));
  }
}

bool EventLoop::cancel(TimerHandle handle) {
  if (!handle.valid()) return false;
  // Events stay queued; execution skips cancelled ids. Only ids still
  // queued may enter `cancelled_` — an id of an event that already ran
  // would never be popped and would leak.
  if (live_.count(handle.id) == 0) return false;
  return cancelled_.insert(handle.id).second;
}

void EventLoop::skim_cancelled() {
  while (!now_queue_.empty() &&
         cancelled_.erase(now_queue_.front().id) > 0) {
    live_.erase(now_queue_.front().id);
    now_queue_.pop_front();
  }
  while (!heap_.empty() && cancelled_.erase(heap_.top().id) > 0) {
    live_.erase(heap_.top().id);
    heap_.pop();
  }
}

bool EventLoop::step(SimTime deadline) {
  drain_external();
  skim_cancelled();
  // The next live event is whichever of the now-queue front and the heap
  // top comes first in the global (time, sequence) order.
  const bool have_now = !now_queue_.empty();
  const bool have_heap = !heap_.empty();
  if (!have_now && !have_heap) return false;
  bool from_now = have_now;
  if (have_now && have_heap) {
    const Event& n = now_queue_.front();
    const Event& h = heap_.top();
    from_now =
        n.time < h.time || (n.time == h.time && n.sequence < h.sequence);
  }

  if (from_now) {
    if (now_queue_.front().time > deadline) return false;
    // Move the event out before popping so re-entrant posting from
    // inside the callback sees a consistent queue.
    Event event = std::move(now_queue_.front());
    now_queue_.pop_front();
    live_.erase(event.id);
    now_ = event.time;
    ++processed_;
    event.callback();
    return true;
  }

  if (heap_.top().time > deadline) return false;
  Event event = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  live_.erase(event.id);
  now_ = event.time;
  ++processed_;
  event.callback();
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
