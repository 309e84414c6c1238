// Segregated-fit heap: the stand-in for the paper's modified jemalloc, used
// for the trusted pool M_T.
//
// In PkAllocator it serves only allocations over kMaxSmallSize (M_T's, and
// M_U's under the §5.3 ablation); smaller ones take the thread caches and
// central free lists. A compartment pool (MultiCompartment) uses it for
// every size.
//
// Small allocations are served from spans — 64 KiB chunks lazily carved into
// equal-size blocks — through one SpanList per size class (span_table.h, the
// same engine the central free lists use), so a span whose blocks have all
// come back is returned to the arena (one fully-free span per class is
// retained as hysteresis). Large allocations map directly to chunks. All
// metadata (free-list links inside free blocks, the one span directory
// shared by every class and large chunk) lives inside the owning arena
// (§3.4). The directory's chunk is taken with the heap (and again by
// Reset), so it is the pool's first chunk, and the table sits at its top,
// directly below the first data chunk: a tenant pool's table page and first
// data page are adjacent. Frees of interior pointers, never-allocated blocks and (via the
// free canary, see small_block.h) already-free blocks abort.
#ifndef SRC_PKALLOC_FREE_LIST_HEAP_H_
#define SRC_PKALLOC_FREE_LIST_HEAP_H_

#include <array>
#include <cstdint>
#include <mutex>

#include "src/pkalloc/arena.h"
#include "src/pkalloc/size_classes.h"
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
  // The arena must outlive the heap. Takes the arena's next chunk for the
  // span directory.
  explicit FreeListHeap(Arena* arena);

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
  // or described pages that are already gone, so nothing is freed, and a new
  // span table takes the pool's first chunk again. Pointers handed out before
  // are dangling. Lets a compartment pool be recycled in place instead of
  // building a new heap object per tenant.
  void Reset();

 private:
  void* AllocateLarge(size_t size);

  Arena* arena_;
  mutable std::mutex mutex_;
  SpanTable spans_;
  std::array<SpanList, kNumSizeClasses> classes_{};
  HeapStats stats_;  // spans_released is summed from classes_ on read
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_FREE_LIST_HEAP_H_
