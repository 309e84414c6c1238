#include "src/pkalloc/thread_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/pkalloc/central_free_list.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

class CentralFreeListTest : public ::testing::Test {
 protected:
  CentralFreeListTest() {
    auto arena = Arena::Create(size_t{64} << 20);
    arena_ = std::move(*arena);
    central_ = std::make_unique<CentralFreeListSet>(arena_.get());
  }

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<CentralFreeListSet> central_;
};

TEST_F(CentralFreeListTest, FetchBatchDeliversDistinctAlignedBlocks) {
  const size_t class_index = SizeClassIndex(64);
  FreeNode* head = nullptr;
  const size_t got = central_->FetchBatch(class_index, &head, 16);
  ASSERT_EQ(got, 16u);
  std::vector<FreeNode*> blocks;
  for (FreeNode* node = head; node != nullptr; node = node->next) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(node) % kMinAllocAlignment, 0u);
    for (FreeNode* seen : blocks) {
      EXPECT_NE(node, seen);
    }
    blocks.push_back(node);
  }
  EXPECT_EQ(blocks.size(), 16u);
  // Chain them back and return the batch.
  central_->ReleaseBatch(class_index, head, got);
}

TEST_F(CentralFreeListTest, ChunkMapClassifiesSpans) {
  const size_t class_index = SizeClassIndex(128);
  FreeNode* head = nullptr;
  ASSERT_GT(central_->FetchBatch(class_index, &head, 4), 0u);
  EXPECT_EQ(central_->ClassOfChunk(ChunkBaseOf(head)), class_index);
  // An address outside any span reports no class.
  EXPECT_EQ(central_->ClassOfChunk(0), CentralFreeListSet::kNoClass);
  FreeNode* node = head;
  size_t count = 0;
  for (; node != nullptr; node = node->next) {
    ++count;
  }
  central_->ReleaseBatch(class_index, head, count);
}

TEST_F(CentralFreeListTest, FullyFreeSpansReturnToArenaBeyondRetained) {
  const size_t class_index = SizeClassIndex(4096);  // 16 blocks per span
  FreeNode* head = nullptr;
  const size_t got = central_->FetchBatch(class_index, &head, 64);  // 4 spans
  ASSERT_EQ(got, 64u);
  const size_t outstanding_full = arena_->outstanding_bytes();
  auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.spans.released");
  const uint64_t counter_before = counter->value();
  central_->ReleaseBatch(class_index, head, got);
  EXPECT_GE(central_->spans_released(), 3u);
  EXPECT_EQ(counter->value() - counter_before, central_->spans_released());
  EXPECT_LE(arena_->outstanding_bytes(), outstanding_full - 3 * kArenaChunkGranularity);
}

TEST_F(CentralFreeListTest, ContainsFreeBlockSeesReleasedBlocks) {
  const size_t class_index = SizeClassIndex(64);
  FreeNode* head = nullptr;
  ASSERT_EQ(central_->FetchBatch(class_index, &head, 2), 2u);
  FreeNode* first = head;
  FreeNode* second = head->next;
  EXPECT_FALSE(central_->ContainsFreeBlock(class_index, first));
  first->next = nullptr;
  central_->ReleaseBatch(class_index, first, 1);
  EXPECT_TRUE(central_->ContainsFreeBlock(class_index, first));
  EXPECT_FALSE(central_->ContainsFreeBlock(class_index, second));
  second->next = nullptr;
  central_->ReleaseBatch(class_index, second, 1);
}

TEST_F(CentralFreeListTest, ThreadCacheRoundTrip) {
  ThreadCache* cache = &central_->LocalCache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(&central_->LocalCache(), cache);  // stable per thread

  const size_t class_index = SizeClassIndex(64);
  void* p = cache->Allocate(class_index);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, 64);
  cache->Free(class_index, p);
  EXPECT_EQ(cache->Allocate(class_index), p);  // local LIFO
  cache->Free(class_index, p);
  cache->FlushAll();
  // After a flush the block is back on the central list.
  EXPECT_TRUE(central_->ContainsFreeBlock(class_index, p));
}

TEST_F(CentralFreeListTest, DistinctThreadsGetDistinctBlocks) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  const size_t class_index = SizeClassIndex(64);
  std::vector<std::vector<void*>> taken(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadCache* cache = &central_->LocalCache();
      for (int i = 0; i < kPerThread; ++i) {
        void* p = cache->Allocate(class_index);
        ASSERT_NE(p, nullptr);
        std::memset(p, t, 64);
        taken[t].push_back(p);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::set<void*> all;
  for (const auto& list : taken) {
    for (void* p : list) {
      EXPECT_TRUE(all.insert(p).second) << "block handed to two threads";
    }
  }
  // Cross-thread free: this thread returns blocks other threads allocated.
  ThreadCache* cache = &central_->LocalCache();
  for (const auto& list : taken) {
    for (void* p : list) {
      cache->Free(class_index, p);
    }
  }
  cache->FlushAll();
}

TEST_F(CentralFreeListTest, CentralDestructionInvalidatesThreadCaches) {
  ThreadCache& cache = central_->LocalCache();
  void* p = cache.Allocate(SizeClassIndex(64));
  ASSERT_NE(p, nullptr);
  const uint64_t old_id = central_->id();
  central_.reset();  // detaches `cache`; its blocks die with the arena
  // A new set gets a fresh owner id, so the dead set's TLS entry can never
  // resolve for it, whatever address the new cache lands at: the new cache
  // starts with no traffic and serves from the new arena.
  auto arena = Arena::Create(size_t{1} << 20);
  ASSERT_TRUE(arena.ok());
  CentralFreeListSet fresh((*arena).get());
  EXPECT_NE(fresh.id(), old_id);
  ThreadCache& fresh_cache = fresh.LocalCache();
  EXPECT_EQ(fresh.traffic()[ThreadCache::kAllocCalls], 0u);
  void* q = fresh_cache.Allocate(SizeClassIndex(64));
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE((*arena)->Contains(reinterpret_cast<uintptr_t>(q)));
  EXPECT_EQ(fresh.traffic()[ThreadCache::kAllocCalls], 1u);
  fresh_cache.Free(SizeClassIndex(64), q);
}

TEST_F(CentralFreeListTest, SlackChunkOfAMisalignedArenaHasNoClass) {
  // A reservation whose base is not chunk-aligned is padded by one chunk, so
  // it ends in a partial chunk past the chunk map. Keep aligned arenas alive
  // and map a page-odd shim after each, so the next arena lands shifted,
  // until one lands misaligned.
  std::vector<std::unique_ptr<Arena>> aligned;
  std::vector<VmRegion> shims;
  std::unique_ptr<Arena> arena;
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto candidate = Arena::Create(size_t{1} << 20);
    ASSERT_TRUE(candidate.ok());
    if (((*candidate)->base() & (kArenaChunkGranularity - 1)) != 0) {
      arena = std::move(*candidate);
      break;
    }
    aligned.push_back(std::move(*candidate));
    auto shim = VmRegion::Reserve((size_t{1} << 20) + kPageSize);
    ASSERT_TRUE(shim.ok());
    shims.push_back(std::move(*shim));
  }
  ASSERT_NE(arena, nullptr) << "no misaligned arena in 64 attempts";
  CentralFreeListSet central(arena.get());
  const uintptr_t slack = ChunkBaseOf(arena->base() + arena->reserved_bytes() - 1);
  EXPECT_GE(slack, RoundUp(arena->base(), kArenaChunkGranularity));
  EXPECT_EQ(central.ClassOfChunk(slack), CentralFreeListSet::kNoClass);
}

}  // namespace
}  // namespace pkrusafe
