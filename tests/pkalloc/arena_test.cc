#include "src/pkalloc/arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/memmap/page.h"
#include "src/pkalloc/span_table.h"

namespace pkrusafe {
namespace {

TEST(ArenaTest, CreateAlignsBase) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto chunk = arena->AllocateChunk(1);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(*chunk & (kArenaChunkGranularity - 1), 0u);
}

TEST(ArenaTest, RejectsTinyReservation) {
  EXPECT_FALSE(Arena::Create(1024).ok());
}

TEST(ArenaTest, ChunksAreDisjoint) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto a = arena->AllocateChunk(kArenaChunkGranularity);
  auto b = arena->AllocateChunk(kArenaChunkGranularity);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + kArenaChunkGranularity);
}

TEST(ArenaTest, RoundsUpToGranularity) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto a = arena->AllocateChunk(1);
  auto b = arena->AllocateChunk(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b - *a, kArenaChunkGranularity);
}

TEST(ArenaTest, FreeChunkIsRecycled) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto a = arena->AllocateChunk(kArenaChunkGranularity);
  ASSERT_TRUE(a.ok());
  arena->FreeChunk(*a, kArenaChunkGranularity);
  auto b = arena->AllocateChunk(kArenaChunkGranularity);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
}

TEST(ArenaTest, ExhaustsGracefully) {
  auto arena_result = Arena::Create(kArenaChunkGranularity * 4);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  int got = 0;
  while (arena->AllocateChunk(kArenaChunkGranularity).ok()) {
    ++got;
    ASSERT_LE(got, 8);  // bail out if exhaustion never happens
  }
  EXPECT_EQ(got, 4);  // the alignment padding never becomes a chunk
  auto fail = arena->AllocateChunk(kArenaChunkGranularity);
  EXPECT_EQ(fail.status().code(), StatusCode::kResourceExhausted);
}

TEST(ArenaTest, ContainsChecksReservation) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto chunk = arena->AllocateChunk(1);
  ASSERT_TRUE(chunk.ok());
  EXPECT_TRUE(arena->Contains(*chunk));
  EXPECT_FALSE(arena->Contains(0x10));
}

TEST(ArenaTest, ChunkMemoryIsWritable) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  auto chunk = arena->AllocateChunk(kArenaChunkGranularity);
  ASSERT_TRUE(chunk.ok());
  auto* bytes = reinterpret_cast<unsigned char*>(*chunk);
  bytes[0] = 1;
  bytes[kArenaChunkGranularity - 1] = 2;
  EXPECT_EQ(bytes[0], 1);
}

TEST(SpanTableTest, InsertFindErase) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());

  EXPECT_EQ(table.Find(0x1000), nullptr);
  ASSERT_TRUE(table.Insert(0x10000, SpanInfo{3, 65536}).ok());
  const SpanInfo* info = table.Find(0x10000);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->class_index, 3u);
  EXPECT_EQ(info->chunk_bytes, 65536u);

  EXPECT_FALSE(table.Insert(0x10000, SpanInfo{4, 1}).ok());
  ASSERT_TRUE(table.Erase(0x10000).ok());
  EXPECT_EQ(table.Find(0x10000), nullptr);
  EXPECT_FALSE(table.Erase(0x10000).ok());
}

TEST(SpanTableTest, SurvivesGrowthAndChurn) {
  auto arena_result = Arena::Create(size_t{64} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());

  constexpr size_t kCount = 5000;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(table.Insert(0x100000 + i * 0x10000, SpanInfo{static_cast<uint32_t>(i), i}).ok());
  }
  EXPECT_EQ(table.size(), kCount);
  for (size_t i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(table.Erase(0x100000 + i * 0x10000).ok());
  }
  for (size_t i = 0; i < kCount; ++i) {
    const SpanInfo* info = table.Find(0x100000 + i * 0x10000);
    if (i % 2 == 0) {
      EXPECT_EQ(info, nullptr);
    } else {
      ASSERT_NE(info, nullptr);
      EXPECT_EQ(info->class_index, i);
    }
  }
}

TEST(SpanTableTest, GrowsFromOnePageStartKeepingEveryEntry) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());

  constexpr size_t kCount = 1500;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(table.Insert(0x100000 + i * 0x10000, SpanInfo{static_cast<uint32_t>(i), i}).ok());
    if (i == 0) {
      EXPECT_EQ(table.capacity(), SpanTable::kFirstCapacity);
    }
  }
  EXPECT_GT(table.capacity(), 1024u);
  EXPECT_EQ(table.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    const SpanInfo* info = table.Find(0x100000 + i * 0x10000);
    ASSERT_NE(info, nullptr) << i;
    EXPECT_EQ(info->class_index, i);
    EXPECT_EQ(info->chunk_bytes, i);
  }
}

// The first table's chunk is taken when the table is built, so over a fresh
// arena it is the first chunk. Its slots sit at the chunk's top, so growing
// past the first page must return that chunk by its base, not by the slots'
// address.
TEST(SpanTableTest, GrowthPastTheFirstPageReturnsTheFirstChunk) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());
  EXPECT_EQ(arena->outstanding_bytes(), kArenaChunkGranularity);

  constexpr size_t kCount = SpanTable::kFirstCapacity;
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(table.Insert(0x100000 + i * 0x10000, SpanInfo{static_cast<uint32_t>(i), i}).ok());
  }
  ASSERT_GT(table.capacity(), SpanTable::kFirstCapacity);  // past one page
  for (size_t i = 0; i < kCount; ++i) {
    const SpanInfo* info = table.Find(0x100000 + i * 0x10000);
    ASSERT_NE(info, nullptr) << i;
    EXPECT_EQ(info->class_index, i);
  }
  // Only the grown table's chunk is still handed out, and the next chunk
  // request gets the first one back.
  EXPECT_EQ(arena->outstanding_bytes(), kArenaChunkGranularity);
  auto reused = arena->AllocateChunk(kArenaChunkGranularity);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, RoundUp(arena->base(), kArenaChunkGranularity));
}

// A released span's chunk keeps its contents (FreeChunk does not decommit),
// so when it is carved again for the same class its blocks still hold the
// free canaries of their last life. A carved block must not carry one: its
// first free would take the slow free-list scan, and a canary check could
// not tell it from a freed block.
TEST(SpanListTest, ReCarvedSpanHandsOutNoStaleCanary) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());
  SpanList list;
  const size_t class_index = SizeClassIndex(4096);
  const size_t per_span = kArenaChunkGranularity / ClassSize(class_index);

  std::vector<FreeNode*> blocks;
  std::vector<uintptr_t> carved;
  const auto pop = [&](size_t want) {
    return list.Pop(
        table, *arena, class_index, want, [&](FreeNode* block) { blocks.push_back(block); },
        [&](uintptr_t base) { carved.push_back(base); });
  };
  ASSERT_EQ(pop(2 * per_span), 2 * per_span);
  ASSERT_EQ(carved.size(), 2u);
  // Free both spans: the first to empty is retained, the second released.
  for (FreeNode* block : blocks) {
    const uintptr_t base = ChunkBaseOf(block);
    list.Push(table, *arena, base, table.FindMutable(base), block, [](uintptr_t) {});
  }
  ASSERT_EQ(list.spans_released(), 1u);
  const uintptr_t released = carved.back();

  // The retained span serves first; the next span is the released one,
  // carved again.
  blocks.clear();
  ASSERT_EQ(pop(2 * per_span), 2 * per_span);
  ASSERT_EQ(carved.size(), 3u);
  EXPECT_EQ(carved.back(), released);
  const auto stale = std::count_if(blocks.begin(), blocks.end(),
                                   [](const FreeNode* block) { return HasFreeCanary(block); });
  EXPECT_EQ(stale, 0);
}

// Erases leave tombstones. With few live spans, churning many distinct
// bases through a small table must rehash the tombstones away rather than
// fill every slot (a full table would leave Probe nothing to stop at).
TEST(SpanTableTest, TombstoneChurnStaysAtFirstCapacity) {
  auto arena_result = Arena::Create(size_t{16} << 20);
  ASSERT_TRUE(arena_result.ok());
  auto arena = std::move(*arena_result);
  SpanTable table(arena.get());

  ASSERT_TRUE(table.Insert(0x10000, SpanInfo{1, 1}).ok());
  for (size_t i = 0; i < 20000; ++i) {
    const uintptr_t base = 0x100000 + i * 0x10000;
    ASSERT_TRUE(table.Insert(base, SpanInfo{2, i}).ok());
    ASSERT_NE(table.Find(0x10000), nullptr);
    ASSERT_TRUE(table.Erase(base).ok());
  }
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.capacity(), SpanTable::kFirstCapacity);
  EXPECT_EQ(table.Find(0x100000), nullptr);
}

}  // namespace
}  // namespace pkrusafe
