#include "src/pkalloc/central_free_list.h"

#include "src/memmap/page.h"
#include "src/pkalloc/thread_cache.h"
#include "src/support/logging.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {

namespace {

std::atomic<uint64_t> g_next_central_id{1};

}  // namespace

CentralFreeListSet::CentralFreeListSet(Arena* arena)
    : id_(g_next_central_id.fetch_add(1, std::memory_order_relaxed)),
      arena_(arena),
      map_base_(RoundUp(arena->base(), kArenaChunkGranularity)),
      map_end_(arena->base() + arena->reserved_bytes()),
      shards_(new Shard[kNumSizeClasses]) {
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

CentralFreeListSet::~CentralFreeListSet() {
  // Detach every thread cache still pointing here. The contract forbids
  // concurrent allocator use during destruction, so the owning threads are
  // either joined or past their last use; their TLS entries are keyed by
  // id() and can never resolve to a later set at this address.
  std::lock_guard lock(caches_mutex_);
  for (ThreadCache* cache : caches_) {
    cache->Invalidate();
  }
  caches_.clear();
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

void CentralFreeListSet::SetTrafficCounters(telemetry::Counter* alloc_calls,
                                            telemetry::Counter* alloc_bytes,
                                            telemetry::Counter* free_calls) {
  counter_alloc_calls_ = alloc_calls;
  counter_alloc_bytes_ = alloc_bytes;
  counter_free_calls_ = free_calls;
}

void CentralFreeListSet::PublishTraffic(const CachedTraffic& traffic) {
  traffic_alloc_calls_.fetch_add(traffic.alloc_calls, std::memory_order_relaxed);
  traffic_free_calls_.fetch_add(traffic.free_calls, std::memory_order_relaxed);
  traffic_alloc_bytes_.fetch_add(traffic.alloc_bytes, std::memory_order_relaxed);
  traffic_freed_bytes_.fetch_add(traffic.freed_bytes, std::memory_order_relaxed);
  if (counter_alloc_calls_ != nullptr) {
    counter_alloc_calls_->Increment(traffic.alloc_calls);
    counter_alloc_bytes_->Increment(traffic.alloc_bytes);
    counter_free_calls_->Increment(traffic.free_calls);
  }
}

CachedTraffic CentralFreeListSet::traffic_totals() const {
  CachedTraffic traffic;
  traffic.alloc_calls = traffic_alloc_calls_.load(std::memory_order_relaxed);
  traffic.free_calls = traffic_free_calls_.load(std::memory_order_relaxed);
  traffic.alloc_bytes = traffic_alloc_bytes_.load(std::memory_order_relaxed);
  traffic.freed_bytes = traffic_freed_bytes_.load(std::memory_order_relaxed);
  return traffic;
}

void CentralFreeListSet::RegisterCache(ThreadCache* cache) {
  std::lock_guard lock(caches_mutex_);
  caches_.push_back(cache);
}

void CentralFreeListSet::UnregisterCache(ThreadCache* cache) {
  std::lock_guard lock(caches_mutex_);
  for (auto it = caches_.begin(); it != caches_.end(); ++it) {
    if (*it == cache) {
      caches_.erase(it);
      return;
    }
  }
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
