// Per-thread size-class caches: the zero-lock front of the allocator.
//
// Each thread owns one ThreadCache per CentralFreeListSet (i.e. per
// compartment pool) it allocates from, found through a TLS registry keyed by
// the set's process-unique id. The hot paths touch only thread-local state
// and are inlined here:
//   * Allocate pops the class's local LIFO; on empty it refills a batch
//     from the central shard (the only lock on the allocation path).
//   * Free pushes onto the local LIFO; when the list reaches its capacity a
//     batch flushes back to the central shard, which is also what returns
//     blocks freed on a different thread than the one that allocated them.
//
// Cache telemetry (pkalloc.cache.{hits,misses,flushes}) and the pending
// traffic accumulate in plain thread-local counters and are published at
// batch boundaries (refill/flush) and when the cache drains. Hits are also
// published on their own every kPublishOps hits, so a steady state that
// never refills or flushes still shows up, while the hit path touches a
// shared cache line only once per kPublishOps allocations.
//
// Lifetime: a cache registers with its central set. Thread exit flushes and
// unregisters; destroying the central set invalidates surviving caches
// (stale TLS entries are never looked up again because ids are unique).
#ifndef SRC_PKALLOC_THREAD_CACHE_H_
#define SRC_PKALLOC_THREAD_CACHE_H_

#include <array>
#include <cstdint>

#include "src/pkalloc/central_free_list.h"
#include "src/pkalloc/size_classes.h"
#include "src/pkalloc/small_block.h"

namespace pkrusafe {

class ThreadCache {
 public:
  // The calling thread's cache for `central`, created on first use. The
  // last-used cache is memoized in plain TLS so the common case (one
  // allocator, two domains) is an id compare.
  static ThreadCache* Get(CentralFreeListSet* central) {
    return tls_last_id == central->id() ? tls_last_cache : GetSlow(central);
  }

  // Pops a block of `class_index`, refilling from the central list when the
  // local list is empty. Returns nullptr on arena exhaustion.
  void* Allocate(size_t class_index) {
    ClassCache& cls = classes_[class_index];
    FreeNode* node = cls.head;
    if (node == nullptr || hits_ >= kPublishOps) {
      return AllocateSlow(class_index);
    }
    ++hits_;
    ++pending_.alloc_calls;
    pending_.alloc_bytes += ClassSize(class_index);
    cls.head = node->next;
    --cls.count;
    ClearFreeCanary(node);
    return node;
  }

  // Pushes `ptr` (a block of `class_index`) onto the local list, flushing a
  // batch to the central list when the class reaches capacity. Detects
  // double frees via the free canary and aborts.
  void Free(size_t class_index, void* ptr) {
    auto* node = static_cast<FreeNode*>(ptr);
    if (HasFreeCanary(node)) {
      ConfirmNotDoubleFree(class_index, node);
    }
    ++pending_.free_calls;
    pending_.freed_bytes += ClassSize(class_index);
    ClassCache& cls = classes_[class_index];
    node->next = cls.head;
    cls.head = node;
    SetFreeCanary(node);
    if (++cls.count >= CapacityFor(class_index)) {
      FreeSlow(class_index);
    }
  }

  // Returns every cached block to the central lists and publishes pending
  // telemetry. The cache stays usable.
  void FlushAll();

  // Traffic this cache has served but not yet published to the central set.
  // The owning allocator adds this to stats() reads so a thread always sees
  // its own allocations reflected immediately.
  const CachedTraffic& pending_traffic() const { return pending_; }

  // Batch size for refill/flush of a class (blocks per central round trip):
  // ~8 KiB worth, clamped so tiny classes batch generously and the largest
  // classes still move a couple of blocks.
  static constexpr uint32_t BatchSize(size_t class_index) {
    const size_t by_bytes = kBatchBytes / ClassSize(class_index);
    return static_cast<uint32_t>(by_bytes < 2 ? 2 : (by_bytes > 64 ? 64 : by_bytes));
  }
  // A class's local list flushes when it reaches twice the batch size.
  static constexpr uint32_t CapacityFor(size_t class_index) {
    return 2 * BatchSize(class_index);
  }

 private:
  friend class CentralFreeListSet;
  struct TlsCaches;

  static constexpr size_t kBatchBytes = 8192;
  // Cache hits between two publications of pkalloc.cache.hits.
  static constexpr uint64_t kPublishOps = 256;

  explicit ThreadCache(CentralFreeListSet* central) : central_(central) {}

  // Registry miss: find or create this thread's cache for `central`.
  static ThreadCache* GetSlow(CentralFreeListSet* central);

  // Refill path: fetch a batch from the central shard, keep one block. Also
  // taken, without a refill, to publish hits once kPublishOps are pending.
  void* AllocateSlow(size_t class_index);
  // Overflow path: flush a batch back to the central shard.
  void FreeSlow(size_t class_index);
  // The canary matched: scan the lists that could hold `node` and abort on
  // a confirmed double free (a data-colliding false positive returns).
  void ConfirmNotDoubleFree(size_t class_index, FreeNode* node);

  // Called by the central set's destructor: drop all blocks (the arena is
  // going away) and detach. Called by the owning thread or after it joined.
  void Invalidate();
  // Thread-exit path: flush to the central set (if alive) and unregister.
  void Retire();

  void FlushBatch(size_t class_index);
  void PublishCounters();
  [[noreturn]] void DieOnDoubleFree(size_t class_index, void* ptr);

  struct ClassCache {
    FreeNode* head = nullptr;
    uint32_t count = 0;
  };

  static thread_local uint64_t tls_last_id;
  static thread_local ThreadCache* tls_last_cache;

  std::array<ClassCache, kNumSizeClasses> classes_{};
  CentralFreeListSet* central_;  // null once invalidated
  // Locally accumulated telemetry, published at sync points.
  CachedTraffic pending_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_THREAD_CACHE_H_
