#pragma once

/// \file thread_pool.hpp
/// A fixed-size worker pool with futures and a blocking parallel_for.
///
/// The pool serves *payload* computation (example workloads that
/// genuinely crunch data); the runtime's control plane never runs on
/// it — placement and transfer planning stay on the event-loop thread.
/// Work items are move-only common::UniqueFunction slots with inline
/// storage, so submit() enqueues a packaged_task directly instead of
/// boxing it in a shared_ptr — one allocation (the task's shared
/// state) instead of two (see bench/micro_runtime's submit pair).

#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ripple/common/concurrent_queue.hpp"
#include "ripple/common/unique_function.hpp"

namespace ripple::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers after draining queued work.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. The task moves
  /// into the queue slot's inline storage — no shared_ptr box.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    std::packaged_task<Result()> task(std::forward<Fn>(fn));
    std::future<Result> future = task.get_future();
    const bool accepted = queue_.push(UniqueFunction(std::move(task)));
    ensure(accepted, Errc::invalid_state, "submit on a stopped thread pool");
    return future;
  }

  /// Runs body(i) for i in [begin, end) across the pool; blocks until
  /// done. Work is divided into contiguous chunks pulled dynamically by
  /// the workers; `chunks_per_worker` sets the granularity (more,
  /// smaller chunks smooth skewed bodies where one contiguous block
  /// per worker would leave stragglers — see the load-imbalance
  /// regression in tests/test_threads.cpp).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t chunks_per_worker = 4);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

 private:
  ConcurrentQueue<UniqueFunction> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace ripple::common
