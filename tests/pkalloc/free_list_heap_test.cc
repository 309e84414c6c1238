#include "src/pkalloc/free_list_heap.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/memmap/page.h"
#include "src/support/rng.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

telemetry::Counter* SpansReleasedCounter() {
  return telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.spans.released");
}

class FreeListHeapTest : public ::testing::Test {
 protected:
  FreeListHeapTest() {
    auto arena = Arena::Create(size_t{256} << 20);
    arena_ = std::move(*arena);
    heap_ = std::make_unique<FreeListHeap>(arena_.get());
  }

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<FreeListHeap> heap_;
};

TEST_F(FreeListHeapTest, BasicAllocateAndFree) {
  void* p = heap_->Allocate(100);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 100);
  heap_->Free(p);
}

TEST_F(FreeListHeapTest, ZeroSizeGetsValidPointer) {
  void* p = heap_->Allocate(0);
  ASSERT_NE(p, nullptr);
  heap_->Free(p);
}

TEST_F(FreeListHeapTest, AlignmentIsSixteen) {
  for (size_t size : {1, 7, 16, 33, 100, 1000, 20000}) {
    void* p = heap_->Allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kMinAllocAlignment, 0u) << "size " << size;
    heap_->Free(p);
  }
}

TEST_F(FreeListHeapTest, UsableSizeCoversRequest) {
  for (size_t size : {1, 16, 17, 1000, 16384, 16385, 100000}) {
    void* p = heap_->Allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(heap_->UsableSize(p), size);
    heap_->Free(p);
  }
}

TEST_F(FreeListHeapTest, FreedBlockIsReused) {
  void* a = heap_->Allocate(64);
  heap_->Free(a);
  void* b = heap_->Allocate(64);
  EXPECT_EQ(a, b);  // LIFO free list returns the block just freed
  heap_->Free(b);
}

TEST_F(FreeListHeapTest, DistinctLiveAllocationsDoNotOverlap) {
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    void* p = heap_->Allocate(48);
    ASSERT_NE(p, nullptr);
    std::memset(p, i & 0xFF, 48);
    ptrs.push_back(p);
  }
  // Verify each block still holds its pattern (no overlap corrupted it).
  for (int i = 0; i < 1000; ++i) {
    auto* bytes = static_cast<unsigned char*>(ptrs[i]);
    for (int j = 0; j < 48; ++j) {
      ASSERT_EQ(bytes[j], i & 0xFF);
    }
  }
  for (void* p : ptrs) {
    heap_->Free(p);
  }
}

TEST_F(FreeListHeapTest, LargeAllocationRoundTrip) {
  void* p = heap_->Allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  auto* bytes = static_cast<unsigned char*>(p);
  bytes[0] = 1;
  bytes[(1 << 20) - 1] = 2;
  EXPECT_GE(heap_->UsableSize(p), size_t{1} << 20);
  heap_->Free(p);
  // The chunk returns to the arena and is reused for the next large alloc.
  void* q = heap_->Allocate(1 << 20);
  EXPECT_EQ(q, p);
  heap_->Free(q);
}

TEST_F(FreeListHeapTest, OwnsDistinguishesPointers) {
  void* p = heap_->Allocate(10);
  int local = 0;
  EXPECT_TRUE(heap_->Owns(p));
  EXPECT_FALSE(heap_->Owns(&local));
  heap_->Free(p);
}

TEST_F(FreeListHeapTest, StatsTrackLiveBytes) {
  const HeapStats before = heap_->stats();
  void* p = heap_->Allocate(100);
  const HeapStats during = heap_->stats();
  EXPECT_EQ(during.alloc_calls, before.alloc_calls + 1);
  EXPECT_GT(during.live_bytes, before.live_bytes);
  heap_->Free(p);
  const HeapStats after = heap_->stats();
  EXPECT_EQ(after.free_calls, before.free_calls + 1);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_GE(after.peak_bytes, during.live_bytes);
}

// Regression: the heap used to keep every small-object span forever — a
// free-everything workload held its peak footprint until process exit. Empty
// spans (all but one retained per class) must go back to the arena.
TEST_F(FreeListHeapTest, EmptySmallSpansReturnToArena) {
  const size_t block = 4096;  // 16 blocks per 64 KiB span
  std::vector<void*> ptrs;
  for (int i = 0; i < 64; ++i) {  // 4 spans' worth
    void* p = heap_->Allocate(block);
    ASSERT_NE(p, nullptr);
    ptrs.push_back(p);
  }
  const size_t outstanding_full = arena_->outstanding_bytes();
  const uint64_t released_before = heap_->stats().spans_released;
  const uint64_t counter_before = SpansReleasedCounter()->value();
  for (void* p : ptrs) {
    heap_->Free(p);
  }
  EXPECT_GE(heap_->stats().spans_released, released_before + 3);
  EXPECT_EQ(SpansReleasedCounter()->value() - counter_before,
            heap_->stats().spans_released - released_before);
  // At least three chunks' worth of address space went back (one span stays
  // retained as hysteresis).
  EXPECT_LE(arena_->outstanding_bytes(), outstanding_full - 3 * kArenaChunkGranularity);
}

TEST_F(FreeListHeapTest, RetainedSpanAbsorbsAllocFreePingPong) {
  void* p = heap_->Allocate(64);
  const uint64_t released_before = heap_->stats().spans_released;
  for (int i = 0; i < 100; ++i) {
    heap_->Free(p);
    p = heap_->Allocate(64);
  }
  heap_->Free(p);
  // The single span ping-pongs between retained and nonempty; it is never
  // given back to the arena.
  EXPECT_EQ(heap_->stats().spans_released, released_before);
}

TEST_F(FreeListHeapTest, ResetAfterDecommitStartsOverAtThePoolBase) {
  // Live small and large blocks, and a span table grown past its first
  // chunk, all vanish with the decommit; the reset heap must not touch any
  // of that state again.
  void* first = heap_->Allocate(64);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_NE(heap_->Allocate(static_cast<size_t>(i % 3 == 0 ? 100000 : 48)), nullptr);
  }
  ASSERT_TRUE(arena_->DecommitAll().ok());
  heap_->Reset();
  EXPECT_EQ(heap_->stats().alloc_calls, 0u);
  EXPECT_EQ(heap_->stats().live_bytes, 0u);
  auto* again = static_cast<uint64_t*>(heap_->Allocate(64));
  EXPECT_EQ(again, first);
  EXPECT_EQ(*again, 0u);
  heap_->Free(again);
  EXPECT_EQ(heap_->stats().live_bytes, 0u);
}

size_t ResidentPages(const Arena& arena) {
  std::vector<unsigned char> vec(arena.reserved_bytes() / kPageSize);
  if (::mincore(reinterpret_cast<void*>(arena.base()), arena.reserved_bytes(), vec.data()) != 0) {
    return ~size_t{0};
  }
  size_t resident = 0;
  for (const unsigned char page : vec) {
    resident += page & 1;
  }
  return resident;
}

// A tenant pool as the sandbox server uses it: one 64 KiB scratch, touched
// once per request. Its span directory is a one-page table, so the pool
// holds the scratch page, the table page and little else; every page here
// is one more PTE for each vpkey re-tag to rewrite. The pool is smaller
// than a huge page, so THP cannot inflate the count.
TEST(FreeListHeapPoolTest, FreshTenantPoolKeepsAFewResidentPages) {
  auto arena = Arena::Create(size_t{1} << 20);
  ASSERT_TRUE(arena.ok());
  FreeListHeap heap(arena->get());
  for (int round = 0; round < 2; ++round) {
    auto* scratch = static_cast<uint64_t*>(heap.Allocate(64 * 1024));
    ASSERT_NE(scratch, nullptr);
    scratch[0] = 1;
    EXPECT_LE(ResidentPages(**arena), 3u) << "round " << round;
    // Recycling the pool (MultiCompartment::ReleaseLibrary) drops every page.
    ASSERT_TRUE((*arena)->DecommitAll().ok());
    heap.Reset();
    EXPECT_EQ(ResidentPages(**arena), 0u);
  }
}

using FreeListHeapDeathTest = FreeListHeapTest;

// Regression: a double free used to splice the block onto the free list
// twice, so two later allocations aliased each other. Now it aborts.
TEST_F(FreeListHeapDeathTest, DoubleFreeOfSmallBlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  void* p = heap_->Allocate(64);
  heap_->Free(p);
  EXPECT_DEATH(heap_->Free(p), "double free");
}

// Randomized churn: interleaved allocs and frees of mixed sizes, with content
// checking. Catches free-list corruption, span misclassification and reuse
// bugs.
class FreeListHeapChurnTest : public FreeListHeapTest,
                              public ::testing::WithParamInterface<uint64_t> {};

TEST_P(FreeListHeapChurnTest, SurvivesRandomChurn) {
  SplitMix64 rng(GetParam());
  struct Live {
    void* ptr;
    size_t size;
    unsigned char tag;
  };
  std::vector<Live> live;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.NextBelow(100) < 60;
    if (do_alloc) {
      // Mix of small and occasionally large sizes.
      const size_t size = rng.NextBelow(100) < 95 ? 1 + rng.NextBelow(2048)
                                                  : 1 + rng.NextBelow(200000);
      void* p = heap_->Allocate(size);
      ASSERT_NE(p, nullptr);
      const auto tag = static_cast<unsigned char>(rng.Next());
      std::memset(p, tag, size);
      live.push_back({p, size, tag});
    } else {
      const size_t victim = rng.NextBelow(live.size());
      auto* bytes = static_cast<unsigned char*>(live[victim].ptr);
      for (size_t i = 0; i < live[victim].size; i += 97) {
        ASSERT_EQ(bytes[i], live[victim].tag) << "corruption at step " << step;
      }
      heap_->Free(live[victim].ptr);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (const Live& entry : live) {
    heap_->Free(entry.ptr);
  }
  EXPECT_EQ(heap_->stats().live_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FreeListHeapChurnTest, ::testing::Values(1, 2, 3, 42, 1234));

}  // namespace
}  // namespace pkrusafe
