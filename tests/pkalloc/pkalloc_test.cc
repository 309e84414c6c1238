#include "src/pkalloc/pkalloc.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/memmap/page.h"
#include "src/mpk/sim_backend.h"
#include "src/support/rng.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

class PkAllocatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    PkAllocatorConfig config;
    config.trusted_pool_bytes = size_t{1} << 30;
    config.untrusted_pool_bytes = size_t{1} << 30;
    auto alloc = PkAllocator::Create(&backend_, config);
    ASSERT_TRUE(alloc.ok());
    alloc_ = std::move(*alloc);
  }

  SimMpkBackend backend_;
  std::unique_ptr<PkAllocator> alloc_;
};

TEST_F(PkAllocatorTest, AllocatesFromCorrectPool) {
  void* t = alloc_->Allocate(Domain::kTrusted, 100);
  void* u = alloc_->Allocate(Domain::kUntrusted, 100);
  ASSERT_NE(t, nullptr);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(*alloc_->OwnerOf(t), Domain::kTrusted);
  EXPECT_EQ(*alloc_->OwnerOf(u), Domain::kUntrusted);
  alloc_->Free(t);
  alloc_->Free(u);
}

TEST_F(PkAllocatorTest, TrustedPagesCarryTheKey) {
  void* t = alloc_->Allocate(Domain::kTrusted, 100);
  void* u = alloc_->Allocate(Domain::kUntrusted, 100);
  EXPECT_EQ(backend_.KeyFor(reinterpret_cast<uintptr_t>(t)), alloc_->trusted_key());
  EXPECT_EQ(backend_.KeyFor(reinterpret_cast<uintptr_t>(u)), kDefaultPkey);
  EXPECT_NE(alloc_->trusted_key(), kDefaultPkey);
  alloc_->Free(t);
  alloc_->Free(u);
}

TEST_F(PkAllocatorTest, DeniedPkruBlocksTrustedPoolOnly) {
  void* t = alloc_->Allocate(Domain::kTrusted, 64);
  void* u = alloc_->Allocate(Domain::kUntrusted, 64);
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(alloc_->trusted_key()));
  EXPECT_FALSE(backend_.CheckAccess(reinterpret_cast<uintptr_t>(t), AccessKind::kRead).ok());
  EXPECT_TRUE(backend_.CheckAccess(reinterpret_cast<uintptr_t>(u), AccessKind::kRead).ok());
  backend_.WritePkru(PkruValue::AllowAll());
  alloc_->Free(t);
  alloc_->Free(u);
}

TEST_F(PkAllocatorTest, OwnerOfForeignPointerIsNullopt) {
  int local = 0;
  EXPECT_FALSE(alloc_->OwnerOf(&local).has_value());
  EXPECT_FALSE(alloc_->OwnerOf(nullptr).has_value());
}

TEST_F(PkAllocatorTest, ReallocNullActsAsAllocInRequestedDomain) {
  void* p = alloc_->Reallocate(Domain::kTrusted, nullptr, 100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*alloc_->OwnerOf(p), Domain::kTrusted);
  alloc_->Free(p);
}

// Regression: Reallocate(nullptr) used to hardcode the trusted pool, so an
// untrusted-classified realloc-from-null landed secrets-adjacent in M_T.
TEST_F(PkAllocatorTest, ReallocNullUntrustedLandsInSharedPool) {
  void* p = alloc_->Reallocate(Domain::kUntrusted, nullptr, 100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*alloc_->OwnerOf(p), Domain::kUntrusted);
  alloc_->Free(p);
}

TEST_F(PkAllocatorTest, ReallocPreservesContents) {
  auto* p = static_cast<unsigned char*>(alloc_->Allocate(Domain::kUntrusted, 64));
  for (int i = 0; i < 64; ++i) {
    p[i] = static_cast<unsigned char>(i);
  }
  auto* q = static_cast<unsigned char*>(alloc_->Reallocate(Domain::kUntrusted, p, 4096));
  ASSERT_NE(q, nullptr);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(q[i], i);
  }
  alloc_->Free(q);
}

TEST_F(PkAllocatorTest, ShrinkReallocReturnsSamePointer) {
  void* p = alloc_->Allocate(Domain::kTrusted, 1000);
  void* q = alloc_->Reallocate(Domain::kTrusted, p, 100);
  EXPECT_EQ(p, q);
  alloc_->Free(q);
}

// Paper §4.2: realloc must never migrate an object between pools, whatever
// path execution takes, so provenance decisions stay valid.
class ReallocPoolPropertyTest : public PkAllocatorTest,
                                public ::testing::WithParamInterface<std::tuple<int, size_t>> {};

TEST_P(ReallocPoolPropertyTest, ReallocStaysInPool) {
  const Domain domain = std::get<0>(GetParam()) == 0 ? Domain::kTrusted : Domain::kUntrusted;
  // The requested domain deliberately contradicts the owner: the original
  // pool must still win.
  const Domain requested = domain == Domain::kTrusted ? Domain::kUntrusted : Domain::kTrusted;
  const size_t new_size = std::get<1>(GetParam());
  void* p = alloc_->Allocate(domain, 128);
  ASSERT_NE(p, nullptr);
  void* q = alloc_->Reallocate(requested, p, new_size);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(*alloc_->OwnerOf(q), domain);
  alloc_->Free(q);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReallocPoolPropertyTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(size_t{1}, size_t{64}, size_t{128}, size_t{4096},
                                         size_t{1} << 20)));

// DESIGN.md invariant 1: pool disjointness under randomized churn — no
// allocation from one pool ever lands on a page the other pool handed out.
TEST_F(PkAllocatorTest, PoolPagesNeverOverlapUnderChurn) {
  SplitMix64 rng(2024);
  std::vector<std::pair<void*, Domain>> live;
  std::set<uint64_t> trusted_pages;
  std::set<uint64_t> untrusted_pages;

  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.NextBelow(100) < 60) {
      const Domain domain = rng.NextBelow(2) == 0 ? Domain::kTrusted : Domain::kUntrusted;
      const size_t size = 1 + rng.NextBelow(8192);
      void* p = alloc_->Allocate(domain, size);
      ASSERT_NE(p, nullptr);
      const size_t usable = alloc_->UsableSize(p);
      for (uintptr_t a = PageDown(reinterpret_cast<uintptr_t>(p));
           a < reinterpret_cast<uintptr_t>(p) + usable; a += kPageSize) {
        (domain == Domain::kTrusted ? trusted_pages : untrusted_pages).insert(PageIndex(a));
      }
      live.emplace_back(p, domain);
    } else {
      const size_t victim = rng.NextBelow(live.size());
      alloc_->Free(live[victim].first);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (uint64_t page : trusted_pages) {
    ASSERT_EQ(untrusted_pages.count(page), 0u) << "page owned by both pools";
  }
  for (auto& [ptr, domain] : live) {
    alloc_->Free(ptr);
  }
}

TEST_F(PkAllocatorTest, AblationUsesFastHeapForUntrusted) {
  SimMpkBackend backend;
  PkAllocatorConfig config;
  config.trusted_pool_bytes = size_t{1} << 30;
  config.untrusted_pool_bytes = size_t{1} << 30;
  config.fast_untrusted_heap = true;
  auto alloc = PkAllocator::Create(&backend, config);
  ASSERT_TRUE(alloc.ok());
  void* u = (*alloc)->Allocate(Domain::kUntrusted, 64);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(*(*alloc)->OwnerOf(u), Domain::kUntrusted);
  // FreeListHeap reuses LIFO; observable signature of the fast heap.
  (*alloc)->Free(u);
  void* v = (*alloc)->Allocate(Domain::kUntrusted, 64);
  EXPECT_EQ(u, v);
  (*alloc)->Free(v);
}

TEST_F(PkAllocatorTest, StatsSeparatePools) {
  const HeapStats t0 = alloc_->trusted_stats();
  const HeapStats u0 = alloc_->untrusted_stats();
  void* t = alloc_->Allocate(Domain::kTrusted, 100);
  EXPECT_EQ(alloc_->trusted_stats().alloc_calls, t0.alloc_calls + 1);
  EXPECT_EQ(alloc_->untrusted_stats().alloc_calls, u0.alloc_calls);
  alloc_->Free(t);
}

// Another thread's cached small allocations show in this thread's stats at
// once: the allocator sums every thread cache's own counts at read, so no
// flush or batch boundary is needed.
TEST_F(PkAllocatorTest, OtherThreadsCachedAllocationsShowWithoutAFlush) {
  constexpr uint64_t kAllocs = 10;  // well inside one refill batch
  const uint64_t before = alloc_->trusted_stats().alloc_calls;
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  auto reach = [&](int next) {
    {
      std::lock_guard lock(mu);
      stage = next;
    }
    cv.notify_all();
  };
  auto await = [&](int target) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return stage >= target; });
  };
  std::thread allocator_thread([&] {
    std::vector<void*> blocks;
    for (uint64_t i = 0; i < kAllocs; ++i) {
      blocks.push_back(alloc_->Allocate(Domain::kTrusted, 64));
    }
    reach(1);
    await(2);  // stay alive (no thread-exit flush) until the read is done
    for (void* block : blocks) {
      alloc_->Free(block);
    }
  });
  await(1);
  EXPECT_EQ(alloc_->trusted_stats().alloc_calls - before, kAllocs);
  reach(2);
  allocator_thread.join();
}

// Regression: the pkalloc.*.alloc_bytes counters used to record the
// *requested* size while HeapStats recorded *usable* bytes, so the two
// telemetry views of the same traffic disagreed. Both now report usable.
TEST_F(PkAllocatorTest, AllocBytesCounterMatchesUsableBytes) {
  auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.trusted.alloc_bytes");
  alloc_->FlushThisThreadCache();  // cached traffic reaches counters at flush
  const uint64_t before_counter = counter->value();
  const HeapStats before_stats = alloc_->trusted_stats();

  void* small = alloc_->Allocate(Domain::kTrusted, 100);   // rounds up to a size class
  void* large = alloc_->Allocate(Domain::kTrusted, 40000);  // heap path, header-rounded
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  const uint64_t usable = alloc_->UsableSize(small) + alloc_->UsableSize(large);
  EXPECT_GT(alloc_->UsableSize(small), 100u);  // the rounding the bug hid

  alloc_->FlushThisThreadCache();
  EXPECT_EQ(counter->value() - before_counter, usable);
  EXPECT_EQ(alloc_->trusted_stats().total_bytes - before_stats.total_bytes, usable);
  alloc_->Free(small);
  alloc_->Free(large);
}

TEST_F(PkAllocatorTest, CachedBlocksReportClassUsableSize) {
  ASSERT_NE(alloc_->central_lists(Domain::kTrusted), nullptr);
  void* p = alloc_->Allocate(Domain::kTrusted, 100);
  EXPECT_EQ(alloc_->UsableSize(p), ClassSize(SizeClassIndex(100)));
  alloc_->Free(p);
}

TEST_F(PkAllocatorTest, CacheCountersTrackHitsAndMisses) {
  auto& registry = telemetry::MetricsRegistry::Global();
  auto* hits = registry.GetOrCreateCounter("pkalloc.cache.hits");
  auto* misses = registry.GetOrCreateCounter("pkalloc.cache.misses");
  alloc_->FlushThisThreadCache();  // publish any pending traffic first
  const uint64_t hits0 = hits->value();
  const uint64_t misses0 = misses->value();

  // First allocation of a never-used class misses; the refilled batch then
  // serves hits until it drains.
  const size_t size = 48;
  void* first = alloc_->Allocate(Domain::kTrusted, size);
  void* second = alloc_->Allocate(Domain::kTrusted, size);
  alloc_->Free(first);
  alloc_->Free(second);
  alloc_->FlushThisThreadCache();

  EXPECT_GE(misses->value() - misses0, 1u);
  EXPECT_GE(hits->value() - hits0, 1u);
}

// A steady state that never refills or flushes still publishes its hits:
// the cache publishes every few hundred hot-path operations, not only at
// batch boundaries.
TEST_F(PkAllocatorTest, SteadyStateCacheHitsArePublishedWithoutAFlush) {
  auto* hits = telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.cache.hits");
  alloc_->Free(alloc_->Allocate(Domain::kTrusted, 48));  // warm the class
  const uint64_t hits0 = hits->value();
  for (int i = 0; i < 10000; ++i) {
    alloc_->Free(alloc_->Allocate(Domain::kTrusted, 48));
  }
  EXPECT_GE(hits->value() - hits0, 9000u);
}

TEST_F(PkAllocatorTest, CacheReusesFreedBlockLifo) {
  void* p = alloc_->Allocate(Domain::kTrusted, 64);
  alloc_->Free(p);
  void* q = alloc_->Allocate(Domain::kTrusted, 64);
  EXPECT_EQ(p, q);
  alloc_->Free(q);
}

TEST_F(PkAllocatorTest, EmptySpansReturnToArenaThroughCentralLists) {
  // Drive enough small traffic through one class to carve several spans,
  // then free everything: all spans but the retained one must go back.
  const size_t size = 4096;  // 16 blocks per 64 KiB span
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) {  // 4 spans' worth
    void* p = alloc_->Allocate(Domain::kTrusted, size);
    ASSERT_NE(p, nullptr);
    blocks.push_back(p);
  }
  const uint64_t released_before = alloc_->central_lists(Domain::kTrusted)->spans_released();
  const size_t outstanding_before = alloc_->trusted_arena().outstanding_bytes();
  for (void* p : blocks) {
    alloc_->Free(p);
  }
  alloc_->FlushThisThreadCache();
  const uint64_t central_released = alloc_->central_lists(Domain::kTrusted)->spans_released();
  EXPECT_GT(central_released, released_before);
  EXPECT_LT(alloc_->trusted_arena().outstanding_bytes(), outstanding_before);
  // No small block reached M_T's FreeListHeap, so the pool's count is the
  // central lists' count.
  EXPECT_EQ(alloc_->trusted_stats().spans_released, central_released);
}

using PkAllocatorDeathTest = PkAllocatorTest;

TEST_F(PkAllocatorDeathTest, DoubleFreeOfCachedBlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  void* p = alloc_->Allocate(Domain::kTrusted, 64);
  alloc_->Free(p);
  EXPECT_DEATH(alloc_->Free(p), "double free");
}

TEST_F(PkAllocatorDeathTest, InteriorPointerFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto* p = static_cast<char*>(alloc_->Allocate(Domain::kTrusted, 64));
  EXPECT_DEATH(alloc_->Free(p + 8), "interior");
  alloc_->Free(p);
}

}  // namespace
}  // namespace pkrusafe
