// pkalloc: the compartment-aware allocator (paper §4.4).
//
// Two disjoint pools back the application heap, each one arena:
//   * M_T — the trusted pool, whose pages are tagged with a dedicated
//     protection key, so they become inaccessible the moment a thread's
//     PKRU drops the key.
//   * M_U — the shared pool, a disjoint arena left on the default key,
//     accessible from both compartments.
//
// Small allocations (<= kMaxSmallSize) in either pool are served from
// per-thread size-class caches backed by sharded central free lists — one
// cache line-up per domain, both over the domain's own arena — so the hot
// path takes no lock at all and the compartment split stops being the
// scaling bottleneck under multithreaded traffic. Large allocations go to
// the per-pool heaps behind their single mutex: a FreeListHeap (jemalloc
// stand-in) for M_T, a BoundaryTagHeap (libc malloc stand-in) for M_U, or
// a FreeListHeap for M_U too under the §5.3 ablation switch.
//
// Invariants (tested as properties):
//   * no page is ever owned by both pools, and pages never migrate;
//   * Reallocate() stays in the pool of its argument regardless of the
//     requested domain of the site (paper §4.2: __rust_realloc keeps the
//     original pool so profiling provenance stays valid), and the new block
//     inherits the old one's site tag.
//
// Allocation provenance is allocator metadata: a block can carry a 4-byte
// site tag (site_tags.h), and any interior address maps back to it.
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
#include "src/pkalloc/site_tags.h"

namespace pkrusafe {

struct PkAllocatorConfig {
  // Reservation sizes; on-demand paging means these cost address space only.
  size_t trusted_pool_bytes = size_t{4} << 30;    // 4 GiB
  size_t untrusted_pool_bytes = size_t{4} << 30;  // 4 GiB
  // When true, M_U allocations over kMaxSmallSize are served from a
  // FreeListHeap too (smaller ones always take the cached path). This is
  // the allocator ablation from §5.3: swapping the slower shared-pool
  // allocator for the fast one removed all detectable allocator overhead.
  bool fast_untrusted_heap = false;
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

  // --- Allocation provenance (site_tags.h) ---

  // Tags the live block at `ptr` (its base) with `tag` != 0 until it is
  // freed. Refuses tag 0, foreign pointers and any address inside a block
  // that already has a tag.
  Status Tag(const void* ptr, uint32_t tag);

  // The tagged block holding `addr` (any interior address) in either pool;
  // tag 0 if none. Wait-free.
  PKRUSAFE_AS_SAFE TaggedBlock FindTagged(uintptr_t addr) const {
    const TaggedBlock block = tags_[0]->Find(addr);
    return block.tag != 0 ? block : tags_[1]->Find(addr);
  }

  // Visits the tagged blocks overlapping [lo, hi), pool by pool in address
  // order, until `fn(const TaggedBlock&)` returns false; returns false iff
  // it stopped. ForEachTagged visits every tagged block (normal context).
  template <typename Fn>
  PKRUSAFE_AS_SAFE bool ForEachTaggedIn(uintptr_t lo, uintptr_t hi, Fn&& fn) const {
    return tags_[0]->ForEachIn(lo, hi, fn) && tags_[1]->ForEachIn(lo, hi, fn);
  }
  template <typename Fn>
  bool ForEachTagged(Fn&& fn) const {
    return tags_[0]->ForEach(fn) && tags_[1]->ForEach(fn);
  }

  // Returns every block cached by the *calling* thread to the central free
  // lists (both domains) and publishes its pkalloc.* registry counters. Use
  // before parking a thread for a long time.
  void FlushThisThreadCache();

  // The protection key tagging M_T.
  PkeyId trusted_key() const { return trusted_key_; }
  // The backend that tagged M_T and enforces its key.
  MpkBackend& backend() const { return *backend_; }

  // Pool stats: the per-pool heap stats merged with the cached-front-end
  // traffic. Cached traffic is counted per thread and summed at every read,
  // so the counts are exact once the allocating threads are quiescent, with
  // no flush needed; peak_bytes for cached traffic is sampled at stats()
  // reads rather than tracked per allocation.
  HeapStats trusted_stats() const;
  HeapStats untrusted_stats() const;

  const Arena& trusted_arena() const { return *trusted_arena_; }
  const Arena& untrusted_arena() const { return *untrusted_arena_; }

  // The central free lists of `domain`. Exposed for tests and
  // introspection tools.
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
  // Cached front end, indexed by DomainIndex().
  // Declared after the heaps/arenas so it is destroyed first (it detaches
  // surviving thread caches before the arenas unmap).
  std::unique_ptr<CentralFreeListSet> central_[2];
  // Each pool's site tags, indexed by DomainIndex().
  std::unique_ptr<SiteTagTable> tags_[2];
  // High-water mark of cached live bytes, sampled at stats() reads.
  mutable std::atomic<uint64_t> peak_live_[2]{};
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_PKALLOC_H_
