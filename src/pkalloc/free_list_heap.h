// Segregated-fit heap: the stand-in for the paper's modified jemalloc, used
// for the trusted pool M_T.
//
// Small allocations are served from spans — 64 KiB chunks lazily carved into
// equal-size blocks, each span keeping its own intrusive free list and
// occupancy count so a span whose blocks have all come back is returned to
// the arena (one fully-free span per class is retained as hysteresis).
// Large allocations map directly to chunks. All metadata (free-list links
// inside free blocks, the span directory) lives inside the owning arena
// (§3.4). Double frees of small blocks are detected via the free canary
// (see small_block.h) and abort.
#ifndef SRC_PKALLOC_FREE_LIST_HEAP_H_
#define SRC_PKALLOC_FREE_LIST_HEAP_H_

#include <array>
#include <cstdint>
#include <mutex>

#include "src/pkalloc/arena.h"
#include "src/pkalloc/size_classes.h"
#include "src/pkalloc/small_block.h"
#include "src/pkalloc/span_table.h"

namespace pkrusafe {

struct HeapStats {
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t live_bytes = 0;   // sum of usable sizes of live allocations
  uint64_t peak_bytes = 0;
  uint64_t total_bytes = 0;  // cumulative usable bytes ever allocated
  uint64_t spans_released = 0;  // empty small-object spans returned to the arena
};

class FreeListHeap {
 public:
  // The arena must outlive the heap.
  explicit FreeListHeap(Arena* arena) : arena_(arena), spans_(arena) {}

  FreeListHeap(const FreeListHeap&) = delete;
  FreeListHeap& operator=(const FreeListHeap&) = delete;

  // Returns 16-byte-aligned memory, or nullptr when the arena is exhausted.
  // Zero-size requests receive a unique valid pointer (smallest class).
  void* Allocate(size_t size);

  // `ptr` must come from Allocate on this heap (nullptr is a no-op).
  void Free(void* ptr);

  // Usable size of a live allocation (>= requested size).
  size_t UsableSize(const void* ptr) const;

  // Whether `ptr` points into this heap's arena.
  bool Owns(const void* ptr) const {
    return arena_->Contains(reinterpret_cast<uintptr_t>(ptr));
  }

  HeapStats stats() const;

  // Returns the heap to its just-constructed state after the arena dropped
  // every chunk (Arena::DecommitAll): the span table, bins and stats lived in
  // or described pages that are already gone, so nothing is freed. Pointers
  // handed out before are dangling. Lets a compartment pool be recycled in
  // place instead of building a new heap object per tenant.
  void Reset();

 private:
  void* AllocateSmall(size_t class_index);
  void* AllocateLarge(size_t size);
  void FreeSmall(uintptr_t chunk_base, SpanInfo* span, void* ptr);

  Arena* arena_;
  mutable std::mutex mutex_;
  SpanTable spans_;
  // Per class: spans with available blocks, plus one retained fully-free
  // span so an alloc/free ping-pong does not thrash the arena.
  std::array<uintptr_t, kNumSizeClasses> nonempty_{};
  std::array<uintptr_t, kNumSizeClasses> retained_{};
  HeapStats stats_;
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_FREE_LIST_HEAP_H_
