#include "src/mpk/fault_rate_budget.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace pkrusafe {
namespace {

constexpr uintptr_t kPage = 4096;

TEST(FaultRateBudgetTest, FractionZeroSamplesNothing) {
  FaultRateBudgetOptions options;
  options.page_fraction = 0.0;
  FaultRateBudget budget(options);
  for (uintptr_t page = 0; page < 4096; ++page) {
    EXPECT_FALSE(budget.SamplesPage(page * kPage));
  }
}

TEST(FaultRateBudgetTest, FractionOneSamplesEverything) {
  FaultRateBudgetOptions options;
  options.page_fraction = 1.0;
  FaultRateBudget budget(options);
  for (uintptr_t page = 0; page < 4096; ++page) {
    EXPECT_TRUE(budget.SamplesPage(page * kPage));
  }
}

TEST(FaultRateBudgetTest, SamplingIsDeterministicPerPage) {
  FaultRateBudgetOptions options;
  options.page_fraction = 0.5;
  FaultRateBudget budget(options);
  for (uintptr_t page = 0; page < 256; ++page) {
    const bool first = budget.SamplesPage(page * kPage);
    // Every address within the page answers the same.
    EXPECT_EQ(first, budget.SamplesPage(page * kPage + 1));
    EXPECT_EQ(first, budget.SamplesPage(page * kPage + kPage - 1));
    EXPECT_EQ(first, budget.SamplesPage(page * kPage));
  }
}

TEST(FaultRateBudgetTest, FractionRoughlyHonored) {
  FaultRateBudgetOptions options;
  options.page_fraction = 0.10;
  FaultRateBudget budget(options);
  int sampled = 0;
  constexpr int kPages = 100000;
  for (uintptr_t page = 0; page < kPages; ++page) {
    if (budget.SamplesPage(page * kPage)) {
      ++sampled;
    }
  }
  // The Fibonacci hash is not a PRF, but over 100k consecutive pages the
  // selected fraction should land well within 2x of the target.
  EXPECT_GT(sampled, kPages / 20);   // > 5%
  EXPECT_LT(sampled, kPages / 5);    // < 20%
}

TEST(FaultRateBudgetTest, SeedRotatesTheSampledSet) {
  FaultRateBudgetOptions a_options;
  a_options.page_fraction = 0.25;
  FaultRateBudgetOptions b_options = a_options;
  b_options.seed = 0x1234;
  FaultRateBudget a(a_options);
  FaultRateBudget b(b_options);
  int differs = 0;
  for (uintptr_t page = 0; page < 4096; ++page) {
    if (a.SamplesPage(page * kPage) != b.SamplesPage(page * kPage)) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultRateBudgetTest, BucketExhaustsWithinInterval) {
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 10'000;
  options.fault_cost_ns = 4'000;
  options.interval_ms = 100;
  FaultRateBudget budget(options);
  // 10k tokens at 4k per fault: two admits, then dry. (now=1: a zero
  // timestamp would read as "interval never started" and refill each call.)
  EXPECT_TRUE(budget.AdmitAt(1, 4'000));
  EXPECT_TRUE(budget.AdmitAt(1, 4'000));
  EXPECT_FALSE(budget.AdmitAt(1, 4'000));
  EXPECT_EQ(budget.admitted(), 2u);
  EXPECT_EQ(budget.exhausted(), 1u);
}

TEST(FaultRateBudgetTest, IntervalBoundaryRefills) {
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 4'000;
  options.fault_cost_ns = 4'000;
  options.interval_ms = 100;
  FaultRateBudget budget(options);
  EXPECT_TRUE(budget.AdmitAt(1, 4'000));
  EXPECT_FALSE(budget.AdmitAt(1, 4'000));
  // 100 ms later the bucket refills to the full per-interval ceiling.
  const uint64_t next = 1 + 100ull * 1'000'000ull;
  EXPECT_TRUE(budget.AdmitAt(next, 4'000));
  EXPECT_FALSE(budget.AdmitAt(next + 1, 4'000));
}

TEST(FaultRateBudgetTest, RefillDoesNotCarryOverUnspentTokens) {
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 8'000;
  options.fault_cost_ns = 4'000;
  options.interval_ms = 10;
  FaultRateBudget budget(options);
  // Start interval 0 without spending; interval 1 still caps at 8k (two
  // admits), not 16k — refill is a store, not an add.
  EXPECT_TRUE(budget.AdmitAt(1, 0));
  const uint64_t next = 1 + 10ull * 1'000'000ull;
  EXPECT_TRUE(budget.AdmitAt(next, 4'000));
  EXPECT_TRUE(budget.AdmitAt(next, 4'000));
  EXPECT_FALSE(budget.AdmitAt(next, 4'000));
}

TEST(FaultRateBudgetTest, ZeroCostAlwaysAdmits) {
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 1;
  FaultRateBudget budget(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(budget.AdmitAt(1, 0));
  }
}

TEST(FaultRateBudgetTest, ConcurrentAdmitsNeverOverspend) {
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 100'000;
  options.fault_cost_ns = 1'000;
  options.interval_ms = 1'000'000;  // effectively no refill during the test
  FaultRateBudget budget(options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget, &admitted] {
      for (int i = 0; i < kPerThread; ++i) {
        if (budget.AdmitAt(1, 1'000)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // 100k tokens at 1k per admit: exactly 100 admissions fleet-wide, no
  // double-spend under contention.
  EXPECT_EQ(admitted.load(), 100);
  EXPECT_EQ(budget.admitted(), 100u);
  EXPECT_EQ(budget.exhausted(), kThreads * kPerThread - 100u);
}

TEST(FaultRateBudgetTest, FirstIntervalKeepsWhatRacingThreadsSpent) {
  // The first admit opens the first interval while other threads may
  // already spend from the bucket the constructor filled; opening it must
  // not refill that bucket. Threads start together so the window is hit.
  FaultRateBudgetOptions options;
  options.service_ns_per_interval = 10'000;
  options.fault_cost_ns = 1'000;
  options.interval_ms = 1'000'000;
  constexpr int kThreads = 4;
  for (int round = 0; round < 200; ++round) {
    FaultRateBudget budget(options);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 20; ++i) {
          budget.AdmitAt(1, 1'000);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) {
      thread.join();
    }
    ASSERT_EQ(budget.admitted(), 10u) << "round " << round;
  }
}

}  // namespace
}  // namespace pkrusafe
