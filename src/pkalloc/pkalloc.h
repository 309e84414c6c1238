// pkalloc: the compartment-aware allocator (paper §4.4).
//
// Two disjoint pools back the application heap:
//   * M_T — the trusted pool: a FreeListHeap (jemalloc stand-in) over an
//     arena whose pages are tagged with a dedicated protection key, so they
//     become inaccessible the moment a thread's PKRU drops the key.
//   * M_U — the shared pool: a BoundaryTagHeap (libc malloc stand-in) over a
//     disjoint arena left on the default key, accessible from both
//     compartments.
//
// Scalable front end: small allocations (<= kMaxSmallSize) are served from
// per-thread size-class caches backed by sharded central free lists — one
// cache line-up per domain, both over the domain's own arena — so the hot
// path takes no lock at all and the compartment split stops being the
// scaling bottleneck under multithreaded traffic. Large allocations and
// cache-disabled configurations go straight to the per-pool heaps behind
// their single mutex (the pre-cache behaviour, kept as the benchmark
// baseline via PkAllocatorConfig::thread_cache).
//
// Invariants (tested as properties):
//   * no page is ever owned by both pools, and pages never migrate;
//   * Reallocate() stays in the pool of its argument regardless of the
//     requested domain of the site (paper §4.2: __rust_realloc keeps the
//     original pool so profiling provenance stays valid).
#ifndef SRC_PKALLOC_PKALLOC_H_
#define SRC_PKALLOC_PKALLOC_H_

#include <atomic>
#include <memory>
#include <optional>

#include "src/mpk/backend.h"
#include "src/pkalloc/arena.h"
#include "src/pkalloc/boundary_tag_heap.h"
#include "src/pkalloc/central_free_list.h"
#include "src/pkalloc/free_list_heap.h"

namespace pkrusafe {

struct PkAllocatorConfig {
  // Reservation sizes; on-demand paging means these cost address space only.
  size_t trusted_pool_bytes = size_t{4} << 30;    // 4 GiB
  size_t untrusted_pool_bytes = size_t{4} << 30;  // 4 GiB
  // When true, M_U allocations are served from a FreeListHeap too. This is
  // the allocator ablation from §5.3: swapping the slower shared-pool
  // allocator for the fast one removed all detectable allocator overhead.
  bool fast_untrusted_heap = false;
  // Thread-caching front end for small allocations (both domains). Off is
  // the global-mutex baseline used by bench_alloc_mt.
  bool thread_cache = true;
};

class PkAllocator {
 public:
  // Reserves both pools, allocates the trusted protection key and tags the
  // trusted pool's pages with it. The backend must outlive the allocator.
  static Result<std::unique_ptr<PkAllocator>> Create(MpkBackend* backend,
                                                     const PkAllocatorConfig& config = {});

  // Unmaps both pools, then returns the trusted key to the backend — in that
  // order, so no page still carries the key when the backend can hand it out
  // again.
  ~PkAllocator();

  PkAllocator(const PkAllocator&) = delete;
  PkAllocator& operator=(const PkAllocator&) = delete;

  // Allocates from the pool of `domain`. Returns nullptr on exhaustion.
  void* Allocate(Domain domain, size_t size);

  // Reallocates within the pool that owns `ptr` (never migrates pools,
  // whatever `domain` says). nullptr behaves like Allocate(domain, size) —
  // the caller's domain decides the pool only when there is no original
  // pool to stay in.
  void* Reallocate(Domain domain, void* ptr, size_t new_size);

  void Free(void* ptr);

  size_t UsableSize(const void* ptr) const;

  // Which pool owns `ptr`, or nullopt for foreign pointers.
  std::optional<Domain> OwnerOf(const void* ptr) const;

  // Returns every block cached by the *calling* thread to the central free
  // lists (both domains). Use before reading counters that must account for
  // this thread's traffic, or before parking a thread for a long time.
  void FlushThisThreadCache();

  // The protection key tagging M_T.
  PkeyId trusted_key() const { return trusted_key_; }

  // Pool stats. With the thread cache enabled these merge the per-pool heap
  // stats with the cached-front-end traffic. Cached traffic is accumulated
  // thread-locally and published at batch boundaries, so a reader always
  // sees its own thread's traffic exactly but may lag other threads by up
  // to one batch (call FlushThisThreadCache on those threads, or let them
  // exit, for a fully settled view); peak_bytes for cached traffic is
  // sampled at stats() reads rather than tracked per allocation.
  HeapStats trusted_stats() const;
  HeapStats untrusted_stats() const;

  const Arena& trusted_arena() const { return *trusted_arena_; }
  const Arena& untrusted_arena() const { return *untrusted_arena_; }

  // The central free lists of `domain`, or nullptr when the thread cache is
  // disabled. Exposed for tests and introspection tools.
  const CentralFreeListSet* central_lists(Domain domain) const {
    return central_[DomainIndex(domain)].get();
  }

 private:
  PkAllocator(MpkBackend* backend, std::unique_ptr<Arena> trusted_arena,
              std::unique_ptr<Arena> untrusted_arena, PkeyId key,
              const PkAllocatorConfig& config);

  static int DomainIndex(Domain domain) { return domain == Domain::kTrusted ? 0 : 1; }

  // The raw pool dispatch Allocate() wraps with telemetry accounting.
  void* AllocateFromPool(Domain domain, size_t size);
  // Full allocation path: thread cache for small sizes, else the heaps.
  void* AllocateInternal(Domain domain, size_t size);
  // Merges the cached-front-end traffic of `index` into heap stats.
  HeapStats StatsFor(int index, HeapStats stats) const;

  MpkBackend* backend_;
  std::unique_ptr<Arena> trusted_arena_;
  std::unique_ptr<Arena> untrusted_arena_;
  PkeyId trusted_key_;
  std::unique_ptr<FreeListHeap> trusted_heap_;
  // Exactly one of the two untrusted heaps is active (ablation switch).
  std::unique_ptr<BoundaryTagHeap> untrusted_heap_;
  std::unique_ptr<FreeListHeap> fast_untrusted_heap_;
  // Cached front end, indexed by DomainIndex(); null when disabled.
  // Declared after the heaps/arenas so it is destroyed first (it detaches
  // live thread caches before the arenas unmap).
  std::unique_ptr<CentralFreeListSet> central_[2];
  // High-water mark of cached live bytes, sampled at stats() reads.
  mutable std::atomic<uint64_t> peak_live_[2]{};
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_PKALLOC_H_
