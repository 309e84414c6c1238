#include "src/pkalloc/central_free_list.h"

#include "src/memmap/page.h"
#include "src/support/logging.h"

namespace pkrusafe {

CentralFreeListSet::CentralFreeListSet(Arena* arena, TrafficCounters traffic_counters)
    : arena_(arena),
      map_base_(RoundUp(arena->base(), kArenaChunkGranularity)),
      map_end_(ChunkBaseOf(arena->base() + arena->reserved_bytes())),
      shards_(new Shard[kNumSizeClasses]),
      traffic_counters_(traffic_counters) {
  const size_t slots =
      map_end_ > map_base_ ? (map_end_ - map_base_) / kArenaChunkGranularity : 0;
  chunk_map_.reset(new std::atomic<uint8_t>[slots]);
  for (size_t i = 0; i < slots; ++i) {
    chunk_map_[i].store(kNoClass, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kNumSizeClasses; ++i) {
    shards_[i].spans.set_arena(arena);
  }
}

size_t CentralFreeListSet::FetchBatch(size_t class_index, FreeNode** out_head, size_t want) {
  Shard& shard = shards_[class_index];
  std::lock_guard lock(shard.mutex);
  FreeNode* head = nullptr;
  const size_t got = shard.list.Pop(
      shard.spans, *arena_, class_index, want,
      [&](FreeNode* block) {
        // The block moves onto a thread cache's free list, so it carries
        // the canary there too.
        block->next = head;
        SetFreeCanary(block);
        head = block;
      },
      [&](uintptr_t base) { SetChunkClass(base, static_cast<uint8_t>(class_index)); });
  *out_head = head;
  return got;
}

void CentralFreeListSet::ReleaseBatch(size_t class_index, FreeNode* head, size_t count) {
  Shard& shard = shards_[class_index];
  std::lock_guard lock(shard.mutex);
  size_t released = 0;
  for (; head != nullptr; ++released) {
    FreeNode* next = head->next;
    const uintptr_t base = ChunkBaseOf(head);
    SpanInfo* span = shard.spans.FindMutable(base);
    PS_CHECK(span != nullptr) << "central release of block without a span";
    // The chunk map forgets a span before the arena can hand its chunk to
    // another shard, whose carve then writes the new class.
    shard.list.Push(shard.spans, *arena_, base, span, head,
                    [&](uintptr_t gone) { SetChunkClass(gone, kNoClass); });
    head = next;
  }
  PS_CHECK_EQ(released, count);
}

bool CentralFreeListSet::ContainsFreeBlock(size_t class_index, const void* ptr) {
  Shard& shard = shards_[class_index];
  std::lock_guard lock(shard.mutex);
  const SpanInfo* span = shard.spans.Find(ChunkBaseOf(ptr));
  return span != nullptr && SpanList::FreeListContains(*span, ptr);
}

uint64_t CentralFreeListSet::spans_released() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumSizeClasses; ++i) {
    std::lock_guard lock(shards_[i].mutex);
    total += shards_[i].list.spans_released();
  }
  return total;
}

}  // namespace pkrusafe
