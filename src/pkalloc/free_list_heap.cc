#include "src/pkalloc/free_list_heap.h"

#include "src/memmap/page.h"
#include "src/support/logging.h"

namespace pkrusafe {

FreeListHeap::FreeListHeap(Arena* arena) : arena_(arena), spans_(arena) {}

void* FreeListHeap::Allocate(size_t size) {
  std::lock_guard lock(mutex_);
  void* ptr = nullptr;
  size_t usable = 0;
  if (size <= kMaxSmallSize) {
    const size_t class_index = SizeClassIndex(size == 0 ? 1 : size);
    classes_[class_index].Pop(
        spans_, *arena_, class_index, 1, [&](FreeNode* block) { ptr = block; },
        [](uintptr_t) {});
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
  const size_t block_size = ClassSize(span->class_index);
  const uintptr_t offset = reinterpret_cast<uintptr_t>(ptr) - chunk_base;
  PS_CHECK_EQ(offset % block_size, 0u) << "Free of interior pointer";
  PS_CHECK_LT(offset / block_size, span->carved) << "Free of never-allocated block";
  if (HasFreeCanary(ptr)) {
    // Canary match: either a double free or (astronomically unlikely) user
    // data colliding with it. The free list is authoritative.
    PS_CHECK(!SpanList::FreeListContains(*span, ptr)) << "double free of small block";
  }
  stats_.live_bytes -= block_size;
  classes_[span->class_index].Push(spans_, *arena_, chunk_base, span, ptr, [](uintptr_t) {});
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
  HeapStats stats = stats_;
  for (const SpanList& list : classes_) {
    stats.spans_released += list.spans_released();
  }
  return stats;
}

void FreeListHeap::Reset() {
  std::lock_guard lock(mutex_);
  spans_.Reset();
  classes_.fill(SpanList{});
  stats_ = HeapStats{};
}

}  // namespace pkrusafe
