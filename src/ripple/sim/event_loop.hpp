#pragma once

/// \file event_loop.hpp
/// The deterministic discrete-event engine that drives every Ripple run.
///
/// All runtime components (scheduler, executor, managers, services,
/// clients) are actors that post timestamped callbacks here. Events at
/// equal times fire in posting order (a monotonically increasing sequence
/// number breaks ties), which makes every simulation bit-reproducible.
///
/// Storage is flat, so each event's bookkeeping is constant-time work on
/// contiguous memory:
///
/// - Callbacks live in a slab of reusable slots with a free list; a slot
///   holds its callback from scheduling until its key pops.
/// - The heap and the now-queue order trivially copyable 24-byte
///   (time, sequence, slot) keys, so a heap sift moves keys, never
///   callbacks.
/// - A TimerHandle packs the slot index with the slot's generation,
///   which advances every time the slot is freed. cancel() is an index
///   and a compare: a stale handle (its event ran, or was cancelled and
///   popped) no longer matches and cannot touch the slot's next
///   occupant. A cancelled event stays queued as a tombstone flag in its
///   slot; its callback is destroyed when its key pops.
///
/// post() — scheduling at the current time — bypasses the heap through a
/// FIFO now-queue: O(1) instead of O(log pending), which matters because
/// grant callbacks, pub/sub deliveries and reply dispatches are all
/// same-time posts and dominate small-point service latency. Ordering is
/// unchanged: the global (time, sequence) order decides between the
/// now-queue front and the heap top, so traces stay bit-identical to the
/// heap-only implementation.

#include <cstdint>
#include <deque>
#include <queue>
#include <type_traits>
#include <vector>

#include "ripple/common/unique_function.hpp"

namespace ripple::sim {

/// Simulation time in seconds since the start of the run.
using SimTime = double;

/// A duration in seconds.
using Duration = double;

class EventLoop {
 public:
  /// Move-only with inline storage for typical closure sizes — no
  /// per-event heap allocation (see unique_function.hpp).
  using Callback = common::UniqueFunction;

  /// Identifies a scheduled event so it can be cancelled: the slot
  /// index in the low 32 bits, the slot's generation (never 0) in the
  /// high 32 bits. A default-constructed handle is invalid.
  struct TimerHandle {
    std::uint64_t id = 0;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  /// Current simulation time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `callback` at absolute time `when` (>= now).
  TimerHandle call_at(SimTime when, Callback callback);

  /// Schedules `callback` after `delay` seconds (>= 0).
  TimerHandle call_after(Duration delay, Callback callback);

  /// Schedules `callback` to run at the current time, after already
  /// pending same-time events ("post to the back of the now-queue").
  /// O(1) fast path: skips the heap entirely.
  TimerHandle post(Callback callback);

  /// Cancels a pending event. Returns false if it already ran (or is
  /// running) or was already cancelled.
  bool cancel(TimerHandle handle);

  /// Runs until the queue is empty. Returns events processed.
  std::size_t run();

  /// Runs while events exist with time <= `deadline`; afterwards, now()
  /// is max(now, deadline). Returns events processed.
  std::size_t run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  std::size_t run_for(Duration duration);

  /// Makes run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Clears the stop flag so the loop can be resumed.
  void reset_stop() noexcept { stopped_ = false; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + now_queue_.size() - cancelled_;
  }

  /// High-water mark of pending() over the run — the event-loop depth
  /// gauge sampled by metrics::Counters.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Cancelled events still queued (they drop out when popped).
  /// Bounded by pending cancellations; exposed for tests.
  [[nodiscard]] std::size_t cancelled_backlog() const noexcept {
    return cancelled_;
  }

 private:
  /// What the heap and the now-queue order.
  struct Key {
    SimTime time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  struct Slot {
    Callback callback;
    /// Advances when the slot is freed; 0 retires the slot for good, so
    /// a handle's (index, generation) pair is never issued twice.
    std::uint32_t generation = 1;
    bool cancelled = false;
  };

  /// Stores `callback` in a free slot and returns its key.
  Key occupy(SimTime when, Callback&& callback);

  /// Hands the slot's callback over and frees the slot.
  Callback vacate(std::uint32_t index);

  /// The handle of the slot's current occupant.
  [[nodiscard]] TimerHandle handle(std::uint32_t index) const noexcept;

  /// Pops and runs the next live event; returns false when exhausted or
  /// when the next event lies beyond `deadline`.
  bool step(SimTime deadline);

  /// Drops cancelled events sitting at the front of either queue.
  void skim_cancelled();

  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  /// Same-time events from post(): FIFO, so already in (time, sequence)
  /// order — now-queue entries never precede the heap's current time.
  std::deque<Key> now_queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Cancelled events whose keys are still queued.
  std::size_t cancelled_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_pending_ = 0;
  bool stopped_ = false;
};

}  // namespace ripple::sim
