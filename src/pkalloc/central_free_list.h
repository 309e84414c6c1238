// Sharded central free lists: the middle layer of the thread-caching
// allocator front end (one instance per compartment pool).
//
// One shard per size class, each with its own mutex, its own span directory
// and its own SpanList (span_table.h, the engine FreeListHeap also uses), so
// refills and flushes of different classes never contend. Thread caches
// move blocks in batches:
//   * FetchBatch pops up to N blocks, lazily carving fresh 64 KiB spans from
//     the arena when every span of the class is exhausted;
//   * ReleaseBatch returns blocks to their spans and hands fully-free spans
//     back to the arena (retaining one per class as hysteresis), so a
//     free-everything workload gives its memory back instead of holding the
//     peak forever.
//
// Dispatch (is this pointer a cached small block, and of which class?) is a
// lock-free chunk map: one atomic byte per 64 KiB chunk of the arena
// reservation, written when a span is created or released and read on every
// Free/UsableSize. Span metadata itself lives in arena-backed SpanTables,
// following the paper's metadata-in-pool rule (§3.4); the chunk map is the
// one index kept outside the pool (like the arena's own free-chunk map).
#ifndef SRC_PKALLOC_CENTRAL_FREE_LIST_H_
#define SRC_PKALLOC_CENTRAL_FREE_LIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "src/pkalloc/arena.h"
#include "src/pkalloc/size_classes.h"
#include "src/pkalloc/span_table.h"
#include "src/pkalloc/thread_cache.h"
#include "src/support/compiler.h"
#include "src/support/per_thread.h"

namespace pkrusafe {

namespace telemetry {
class Counter;
}  // namespace telemetry

// The registry counters a set's cached traffic is mirrored into (the owning
// allocator's domain-tagged pkalloc.* counters); all null = not mirrored.
struct TrafficCounters {
  telemetry::Counter* alloc_calls = nullptr;
  telemetry::Counter* alloc_bytes = nullptr;
  telemetry::Counter* free_calls = nullptr;
};

class CentralFreeListSet {
 public:
  // Chunk-map value for "not a cached small-object span".
  static constexpr uint8_t kNoClass = 0xFF;

  // The arena must outlive this set. Destroying the set detaches every
  // thread cache attached to it; no thread may be using the allocator
  // concurrently with destruction (the usual heap-destruction contract).
  explicit CentralFreeListSet(Arena* arena, TrafficCounters traffic_counters = {});

  CentralFreeListSet(const CentralFreeListSet&) = delete;
  CentralFreeListSet& operator=(const CentralFreeListSet&) = delete;

  // Process-unique id (the thread caches' PerThread owner id), so a new set
  // reusing a dead set's address can never alias a stale cache.
  uint64_t id() const { return caches_.id(); }

  // The calling thread's cache for this set, created on first use.
  PS_ALWAYS_INLINE ThreadCache& LocalCache() { return caches_.Local(this); }

  // Pops up to `want` blocks of `class_index`, chained through FreeNode.
  // Returns the number fetched (0 when the arena is exhausted).
  size_t FetchBatch(size_t class_index, FreeNode** out_head, size_t want);

  // Returns `count` blocks chained from `head` to their spans.
  void ReleaseBatch(size_t class_index, FreeNode* head, size_t count);

  // Lock-free: the size class of the span owning `chunk_base`, or kNoClass
  // if the chunk is not a cached small-object span.
  uint8_t ClassOfChunk(uintptr_t chunk_base) const {
    if (chunk_base < map_base_ || chunk_base >= map_end_) {
      return kNoClass;
    }
    return chunk_map_[(chunk_base - map_base_) / kArenaChunkGranularity].load(
        std::memory_order_acquire);
  }

  // Authoritative double-free confirmation: whether `ptr` is currently on
  // its span's central free list. Takes the shard lock.
  bool ContainsFreeBlock(size_t class_index, const void* ptr);

  const TrafficCounters& traffic_counters() const { return traffic_counters_; }
  // Every thread cache's traffic (ThreadCache::Counts), summed now: exact
  // once the allocating threads are quiescent.
  ThreadCache::Counts traffic() const { return caches_.Sum(); }

  uint64_t spans_released() const;

 private:
  struct alignas(64) Shard {
    std::mutex mutex;
    SpanTable spans;  // spans of this class only
    SpanList list;
  };

  // Chunk-map entry of the span at `base`. Written under the shard lock when
  // the engine carves or releases a span.
  void SetChunkClass(uintptr_t base, uint8_t class_index) {
    chunk_map_[(base - map_base_) / kArenaChunkGranularity].store(class_index,
                                                                 std::memory_order_release);
  }

  Arena* arena_;
  uintptr_t map_base_;  // first chunk-aligned address of the reservation
  uintptr_t map_end_;   // end of its last whole chunk
  std::unique_ptr<std::atomic<uint8_t>[]> chunk_map_;
  std::unique_ptr<Shard[]> shards_;  // kNumSizeClasses entries

  const TrafficCounters traffic_counters_;
  // Declared last, so destroyed first: surviving thread caches are detached
  // while the shards they would flush to still exist.
  PerThread<ThreadCache> caches_;
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_CENTRAL_FREE_LIST_H_
