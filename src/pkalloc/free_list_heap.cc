#include "src/pkalloc/free_list_heap.h"

#include "src/memmap/page.h"
#include "src/support/logging.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {

namespace {

telemetry::Counter* SpansReleasedCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.spans.released");
  return counter;
}

// Pops one block from `span`: the free list first, then the lazy-carve bump
// pointer. The caller must have checked HasAvailableBlock().
void* PopBlock(SpanInfo* span, uintptr_t chunk_base, size_t block_size) {
  if (span->free_head != nullptr) {
    auto* node = static_cast<FreeNode*>(span->free_head);
    span->free_head = node->next;
    --span->free_count;
    ClearFreeCanary(node);
    return node;
  }
  void* block =
      reinterpret_cast<void*>(chunk_base + size_t{span->carved} * block_size);
  ++span->carved;
  return block;
}

bool SpanFreeListContains(const SpanInfo* span, const void* ptr) {
  for (const auto* node = static_cast<const FreeNode*>(span->free_head); node != nullptr;
       node = node->next) {
    if (node == ptr) {
      return true;
    }
  }
  return false;
}

}  // namespace

void* FreeListHeap::Allocate(size_t size) {
  std::lock_guard lock(mutex_);
  void* ptr = nullptr;
  size_t usable = 0;
  if (size <= kMaxSmallSize) {
    const size_t class_index = SizeClassIndex(size == 0 ? 1 : size);
    ptr = AllocateSmall(class_index);
    usable = ClassSize(class_index);
  } else {
    ptr = AllocateLarge(size);
    usable = ptr != nullptr ? RoundUp(size, kArenaChunkGranularity) : 0;
  }
  if (ptr != nullptr) {
    ++stats_.alloc_calls;
    stats_.live_bytes += usable;
    stats_.total_bytes += usable;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.live_bytes);
  }
  return ptr;
}

void* FreeListHeap::AllocateSmall(size_t class_index) {
  const size_t block_size = ClassSize(class_index);
  uintptr_t base = nonempty_[class_index];
  if (base == 0 && retained_[class_index] != 0) {
    // Reuse the retained fully-free span before touching the arena.
    base = retained_[class_index];
    retained_[class_index] = 0;
    LinkNonempty(spans_, &nonempty_[class_index], base, spans_.FindMutable(base));
  }
  if (base == 0) {
    auto chunk = arena_->AllocateChunk(kArenaChunkGranularity);
    if (!chunk.ok()) {
      return nullptr;
    }
    SpanInfo info;
    info.class_index = static_cast<uint32_t>(class_index);
    info.chunk_bytes = kArenaChunkGranularity;
    info.block_count = static_cast<uint32_t>(kArenaChunkGranularity / block_size);
    if (!spans_.Insert(*chunk, info).ok()) {
      arena_->FreeChunk(*chunk, kArenaChunkGranularity);
      return nullptr;
    }
    base = *chunk;
    LinkNonempty(spans_, &nonempty_[class_index], base, spans_.FindMutable(base));
  }
  SpanInfo* span = spans_.FindMutable(base);
  void* ptr = PopBlock(span, base, block_size);
  if (!span->HasAvailableBlock()) {
    UnlinkNonempty(spans_, &nonempty_[class_index], base, span);
  }
  return ptr;
}

void* FreeListHeap::AllocateLarge(size_t size) {
  const size_t rounded = RoundUp(size, kArenaChunkGranularity);
  auto chunk = arena_->AllocateChunk(rounded);
  if (!chunk.ok()) {
    return nullptr;
  }
  if (!spans_.Insert(*chunk, SpanInfo{SpanInfo::kLargeSpan, rounded}).ok()) {
    arena_->FreeChunk(*chunk, rounded);
    return nullptr;
  }
  return reinterpret_cast<void*>(*chunk);
}

void FreeListHeap::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  std::lock_guard lock(mutex_);
  PS_CHECK(Owns(ptr)) << "Free of pointer not owned by this heap";
  const uintptr_t chunk_base = ChunkBaseOf(ptr);
  SpanInfo* span = spans_.FindMutable(chunk_base);
  PS_CHECK(span != nullptr) << "Free of pointer without a span";

  ++stats_.free_calls;
  if (span->class_index == SpanInfo::kLargeSpan) {
    PS_CHECK_EQ(reinterpret_cast<uintptr_t>(ptr), chunk_base)
        << "large frees must pass the allocation base";
    const size_t bytes = span->chunk_bytes;
    PS_CHECK(spans_.Erase(chunk_base).ok());
    arena_->FreeChunk(chunk_base, bytes);
    stats_.live_bytes -= bytes;
    return;
  }
  FreeSmall(chunk_base, span, ptr);
}

void FreeListHeap::FreeSmall(uintptr_t chunk_base, SpanInfo* span, void* ptr) {
  const size_t class_index = span->class_index;
  const size_t block_size = ClassSize(class_index);
  const uintptr_t offset = reinterpret_cast<uintptr_t>(ptr) - chunk_base;
  PS_CHECK_EQ(offset % block_size, 0u) << "Free of interior pointer";
  PS_CHECK_LT(offset / block_size, span->carved) << "Free of never-allocated block";

  auto* node = static_cast<FreeNode*>(ptr);
  if (HasFreeCanary(node)) {
    // Canary match: either a double free or (astronomically unlikely) user
    // data colliding with it. The free list is authoritative.
    PS_CHECK(!SpanFreeListContains(span, node)) << "double free of small block";
  }
  const bool was_exhausted = !span->HasAvailableBlock();
  node->next = static_cast<FreeNode*>(span->free_head);
  span->free_head = node;
  ++span->free_count;
  SetFreeCanary(node);
  stats_.live_bytes -= block_size;
  if (was_exhausted) {
    LinkNonempty(spans_, &nonempty_[class_index], chunk_base, span);
  }
  if (span->FullyFree()) {
    UnlinkNonempty(spans_, &nonempty_[class_index], chunk_base, span);
    if (retained_[class_index] == 0) {
      retained_[class_index] = chunk_base;
    } else {
      PS_CHECK(spans_.Erase(chunk_base).ok());
      arena_->FreeChunk(chunk_base, kArenaChunkGranularity);
      ++stats_.spans_released;
      SpansReleasedCounter()->Increment();
    }
  }
}

size_t FreeListHeap::UsableSize(const void* ptr) const {
  std::lock_guard lock(mutex_);
  const SpanInfo* span = spans_.Find(ChunkBaseOf(ptr));
  PS_CHECK(span != nullptr) << "UsableSize of unknown pointer";
  if (span->class_index == SpanInfo::kLargeSpan) {
    return span->chunk_bytes;
  }
  return ClassSize(span->class_index);
}

HeapStats FreeListHeap::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void FreeListHeap::Reset() {
  std::lock_guard lock(mutex_);
  spans_.Reset();
  nonempty_.fill(0);
  retained_.fill(0);
  stats_ = HeapStats{};
}

}  // namespace pkrusafe
