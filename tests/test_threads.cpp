// Real-thread tests for the concurrent queue and thread pool (these run
// actual std::thread workers, unlike the deterministic control plane).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "ripple/common/concurrent_queue.hpp"
#include "ripple/common/thread_pool.hpp"

namespace {

using namespace ripple;

TEST(ConcurrentQueue, FifoSingleThread) {
  common::ConcurrentQueue<int> queue;
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(ConcurrentQueue, CloseDrainsThenSignalsExhaustion) {
  common::ConcurrentQueue<int> queue;
  queue.push(7);
  queue.close();
  EXPECT_FALSE(queue.push(8));
  EXPECT_EQ(queue.pop().value(), 7);  // drains remaining item
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_TRUE(queue.closed());
}

TEST(ConcurrentQueue, BoundedTryPushFailsWhenFull) {
  common::ConcurrentQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  (void)queue.pop();
  EXPECT_TRUE(queue.try_push(3));
}

TEST(ConcurrentQueue, ManyProducersManyConsumers) {
  common::ConcurrentQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 2500;
  std::atomic<long long> total{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        total += *item;
        ++consumed;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        queue.push(p * kItemsEach + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  const long long n = kProducers * kItemsEach;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ConcurrentQueue, BlockingPushWakesOnPop) {
  common::ConcurrentQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));  // parks on the full queue
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // capacity 1: still blocked
  EXPECT_EQ(queue.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST(ConcurrentQueue, CloseReleasesFullQueueWaiters) {
  common::ConcurrentQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::thread producer([&] {
    EXPECT_FALSE(queue.push(2));  // woken by close(), not by space
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_EQ(queue.pop().value(), 1);  // close still drains
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(ConcurrentQueue, TryPopDrainsAfterClose) {
  common::ConcurrentQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_EQ(queue.try_pop().value(), 2);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(ThreadPool, SubmitReturnsFutures) {
  common::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  common::ThreadPool pool(1);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { ++touched[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingle) {
  common::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(5, 6, [&](std::size_t i) {
    EXPECT_EQ(i, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelReductionMatchesSerial) {
  common::ThreadPool pool;
  constexpr std::size_t kN = 100000;
  std::vector<double> data(kN);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> partial(pool.thread_count(), 0.0);
  // Chunked manual reduction through submit().
  std::vector<std::future<double>> futures;
  const std::size_t chunk = kN / 4;
  for (int c = 0; c < 4; ++c) {
    futures.push_back(pool.submit([&, c] {
      double sum = 0;
      const std::size_t hi = c == 3 ? kN : (c + 1) * chunk;
      for (std::size_t i = c * chunk; i < hi; ++i) sum += data[i];
      return sum;
    }));
  }
  double total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_DOUBLE_EQ(total, kN * (kN - 1) / 2.0);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables) {
  // The queue stores tasks in a move-only inline-storage wrapper, so
  // submit() no longer needs copyable callables (or the shared_ptr
  // indirection that used to fake them).
  common::ThreadPool pool(1);
  auto future = pool.submit(
      [p = std::make_unique<int>(41)]() mutable { return *p + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForChunkGranularityBalancesLoad) {
  // 16 items, the first 8 slow. One chunk per worker puts every slow
  // item in the same chunk (8 sleeps back to back on one worker); the
  // default granularity (4 chunks/worker) spreads them across both.
  common::ThreadPool pool(2);
  const auto slow_half = [](std::size_t i) {
    if (i < 8) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  const auto timed = [&](std::size_t chunks_per_worker) {
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(0, 16, slow_half, chunks_per_worker);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double coarse = timed(1);
  const double fine = timed(4);
  EXPECT_GT(coarse, 0.23);  // all 8 sleeps land on one worker
  EXPECT_LT(fine, 0.21);    // sleeps overlap at finer granularity
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] { ++ran; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
