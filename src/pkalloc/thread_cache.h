// Per-thread size-class caches: the zero-lock front of the allocator.
//
// Each thread owns one ThreadCache per CentralFreeListSet (i.e. per
// compartment pool) it allocates from: the set's PerThread slot
// (src/support/per_thread.h). The hot paths touch only thread-local state
// and are inlined here:
//   * Allocate pops the class's local LIFO; on empty it refills a batch
//     from the central shard (the only lock on the allocation path).
//   * Free pushes onto the local LIFO; when the list reaches its capacity a
//     batch flushes back to the central shard, which is also what returns
//     blocks freed on a different thread than the one that allocated them.
//
// Traffic (calls and bytes) is counted in this cache's own relaxed fields,
// which the central set sums at every read. The registry counters
// (pkalloc.cache.{hits,misses,flushes} and the owner's pkalloc.{trusted,
// untrusted}.* traffic) are published at batch boundaries (refill/flush) and
// when the cache drains; hits are also published on their own every
// kPublishOps hits, so a steady state that never refills or flushes still
// shows up, while the hit path touches a shared cache line only once per
// kPublishOps allocations.
//
// Lifetime (PerThread's): thread exit flushes the cache back to its central
// set; destroying the central set publishes the counters of the caches that
// survive it, whose blocks die with the arena.
#ifndef SRC_PKALLOC_THREAD_CACHE_H_
#define SRC_PKALLOC_THREAD_CACHE_H_

#include <array>
#include <cstdint>

#include "src/pkalloc/size_classes.h"
#include "src/pkalloc/small_block.h"
#include "src/support/per_thread.h"

namespace pkrusafe {

class CentralFreeListSet;

class ThreadCache {
 public:
  // The traffic counts (bytes are usable bytes), indices into Counts.
  enum : size_t { kAllocCalls, kFreeCalls, kAllocBytes, kFreedBytes };
  using Counts = std::array<uint64_t, 4>;

  explicit ThreadCache(CentralFreeListSet* central) : central_(central) {}

  // Pops a block of `class_index`, refilling from the central list when the
  // local list is empty. Returns nullptr on arena exhaustion.
  void* Allocate(size_t class_index) {
    ClassCache& cls = classes_[class_index];
    FreeNode* node = cls.head;
    if (node == nullptr || hits_ >= kPublishOps) {
      return AllocateSlow(class_index);
    }
    ++hits_;
    traffic_.Add(kAllocCalls);
    traffic_.Add(kAllocBytes, ClassSize(class_index));
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
    traffic_.Add(kFreeCalls);
    traffic_.Add(kFreedBytes, ClassSize(class_index));
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

  // PerThread slot hooks: this cache's traffic (any thread), the exiting
  // thread's flush, and the central set's destruction.
  void AddTo(Counts& total) const { traffic_.AddTo(total); }
  void OnThreadExit() { FlushAll(); }
  void OnOwnerDestroyed() { PublishCounters(); }

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
  static constexpr size_t kBatchBytes = 8192;
  // Cache hits between two publications of pkalloc.cache.hits.
  static constexpr uint64_t kPublishOps = 256;

  // Refill path: fetch a batch from the central shard, keep one block. Also
  // taken, without a refill, to publish hits once kPublishOps are pending.
  void* AllocateSlow(size_t class_index);
  // Overflow path: flush a batch back to the central shard.
  void FreeSlow(size_t class_index);
  // The canary matched: scan the lists that could hold `node` and abort on
  // a confirmed double free (a data-colliding false positive returns).
  void ConfirmNotDoubleFree(size_t class_index, FreeNode* node);

  void FlushBatch(size_t class_index);
  void PublishCounters();
  [[noreturn]] void DieOnDoubleFree(size_t class_index, void* ptr);

  struct ClassCache {
    FreeNode* head = nullptr;
    uint32_t count = 0;
  };

  std::array<ClassCache, kNumSizeClasses> classes_{};
  CentralFreeListSet* central_;
  // Running traffic totals, written by the owning thread and summed by the
  // central set's readers; `published_` is the part already mirrored into
  // the registry counters.
  CounterSlot<ThreadCache, 4> traffic_;
  Counts published_{};
  // Cache telemetry not yet published.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_THREAD_CACHE_H_
