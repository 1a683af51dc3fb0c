#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace rtnn {
namespace {

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  const std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; }, 16);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ForEmptyAndReversedRanges) {
  int calls = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(5, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, ForSmallRangeRunsSerially) {
  // Ranges below the grain run inline (no data races on non-atomic state).
  std::vector<int> order;
  parallel_for(0, 10, [&](std::int64_t i) { order.push_back(static_cast<int>(i)); },
               1024);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Parallel, ChunksPartitionTheRange) {
  const std::int64_t n = 54321;
  std::atomic<std::int64_t> total{0};
  parallel_for_chunks(0, n, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_LE(lo, hi);
    total += hi - lo;
  }, 100);
  EXPECT_EQ(total.load(), n);
}

TEST(Parallel, ReduceSum) {
  const std::int64_t n = 200000;
  const auto sum = parallel_reduce<std::int64_t>(
      0, n, 0, [](std::int64_t i) { return i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(Parallel, ReduceMax) {
  std::vector<int> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 2654435761u) % 99991);
  }
  const int expected = *std::max_element(values.begin(), values.end());
  const int got = parallel_reduce<int>(
      0, static_cast<std::int64_t>(values.size()), 0,
      [&](std::int64_t i) { return values[static_cast<std::size_t>(i)]; },
      [](int a, int b) { return a > b ? a : b; });
  EXPECT_EQ(got, expected);
}

TEST(Parallel, ReduceEmptyReturnsInit) {
  const int got = parallel_reduce<int>(
      3, 3, -7, [](std::int64_t) { return 100; }, [](int a, int b) { return a + b; });
  EXPECT_EQ(got, -7);
}

TEST(Parallel, ThreadOverride) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
}

TEST(CompletionEvent, SignalReleasesWaiter) {
  CompletionEvent event;
  EXPECT_FALSE(event.signaled());
  EXPECT_FALSE(event.wait_for(std::chrono::milliseconds(1)));
  std::thread signaler([&] { event.signal(); });
  event.wait();
  EXPECT_TRUE(event.signaled());
  EXPECT_TRUE(event.wait_for(std::chrono::milliseconds(1)));  // already fired
  event.wait();                                               // returns forever
  signaler.join();
}

TEST(CompletionEvent, ZeroAndNegativeTimeoutsPollWithoutBlocking) {
  CompletionEvent event;
  // A non-positive timeout is a poll: report the current state, never
  // block, and never trip the deadline-overflow inside wait_for.
  const auto deadline_cases = {
      std::chrono::nanoseconds::zero(),
      std::chrono::nanoseconds(-1),
      std::chrono::nanoseconds::min(),
  };
  for (const auto timeout : deadline_cases) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(event.wait_for(timeout));
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(100));
  }
  event.signal();
  for (const auto timeout : deadline_cases) {
    EXPECT_TRUE(event.wait_for(timeout)) << "signaled state must show in a poll";
  }
}

TEST(WorkQueue, FifoAcrossProducers) {
  WorkQueue<int> queue;
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.pop_for(std::chrono::nanoseconds::zero()).has_value());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  EXPECT_EQ(queue.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.pop(), i);
}

TEST(WorkQueue, CloseDrainsThenRefuses) {
  WorkQueue<int> queue;
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // refused, dropped
  EXPECT_EQ(queue.pop(), 1);    // queued items still drain
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_FALSE(queue.pop().has_value());  // closed and empty: no block
  EXPECT_FALSE(queue.pop_for(std::chrono::milliseconds(1)).has_value());
}

TEST(WorkQueue, PopForTimesOutWithoutItems) {
  WorkQueue<int> queue;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.pop_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(4));
}

TEST(WorkQueue, CloseWakesBlockedConsumer) {
  WorkQueue<int> queue;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    EXPECT_FALSE(queue.pop().has_value());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(WorkQueue, ManyProducersOneConsumerDeliversEverything) {
  WorkQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        EXPECT_TRUE(queue.push(p * kItemsEach + i));
      }
    });
  }
  std::vector<bool> seen(kProducers * kItemsEach, false);
  for (int n = 0; n < kProducers * kItemsEach; ++n) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    ASSERT_FALSE(seen[static_cast<std::size_t>(*item)]);
    seen[static_cast<std::size_t>(*item)] = true;
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace rtnn
