// Multi-compartment support: the §6 "Number of Compartments" extension,
// scaled past the hardware key count.
//
// The paper's two-domain split (T + one U) is a policy choice; §6 sees "no
// fundamental issue using a more complicated partitioning scheme that uses
// more than two domains". This module implements that scheme on top of the
// same primitives: each registered untrusted library gets its *own*
// protection key and its own private pool, plus access to the shared pool.
// M_T, M_U and the trusted key are not this module's: they are the
// PkAllocator's it is built on, so a process has exactly one of each and
// the compartments add only the per-library pools, virtual keys and Scope.
// The policy matrix:
//
//   * T (no active library) — access to everything;
//   * library i — access to its own pool and M_U only; the allocator's M_T
//     and every other library's pool are denied.
//
// So a compromised codec cannot corrupt the JS engine's heap either — a
// strictly stronger property than the paper's deployment. Library keys are
// *virtual* (src/multidomain/vpkey.h, after libmpk): the registration count
// is unbounded, hot keys are cached in the hardware key slots, and entering
// a library whose key was evicted faults it back in by lazily re-tagging its
// pool. A library's key stays pinned for the duration of every Scope that
// entered it, so eviction can never invalidate an installed PKRU.
//
// Thread safety: registration, release, transitions, allocation and
// ownership queries may race freely across threads. Registration, release
// and the vpkey cache's mutating operations serialize on one internal
// mutex; the transition fast path (EnterLibrary of a resident library,
// ExitLibrary) takes no lock — the library table has lock-free readers
// (StableIndexArray) and pins live in per-thread records (vpkey.h).
// ReleaseLibrary refuses while the library is pinned anywhere, so a racing
// in-flight request either blocks the release (retry later) or completed
// before it; operations on a *released* id afterwards are caller bugs, but
// racing scans over other libraries stay safe throughout.
// transition_count() is maintained lossily for the same reason and may
// undercount under concurrency.
//
// Recycling: a released library's id, pool reservation and heap object go
// on a free list, and the next RegisterLibrary takes them back with a fresh
// virtual key. Table entries, reserved pools and tagged ranges are therefore
// bounded by the peak number of live libraries, not by every registration a
// long-lived server ever made — which keeps each eviction's re-tag (whose
// backend cost grows with the tagged ranges in the process) flat. Three
// consequences:
//
//   * A pointer into a released pool is dangling, as with any freed memory:
//     the pages were decommitted and read zero, and once the pool is
//     recycled the same address may hold the next holder's objects. A stale
//     LibraryId likewise names the next holder once it is reused.
//   * library_count() counts table entries (peak live libraries), not ids
//     ever minted.
//   * Entries are rewritten on reuse. The fields lock-free readers touch are
//     written so racing readers stay clean under ThreadSanitizer: `vkey` is
//     atomic, `live_heap` publishes the heap (and the pool stays the same
//     object for the entry's lifetime), and `name` is read under the mutex.
#ifndef SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_
#define SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/mpk/backend.h"
#include "src/multidomain/vpkey.h"
#include "src/pkalloc/arena.h"
#include "src/pkalloc/free_list_heap.h"
#include "src/pkalloc/pkalloc.h"
#include "src/runtime/call_gate.h"
#include "src/support/compiler.h"
#include "src/support/logging.h"
#include "src/support/stable_index_array.h"

namespace pkrusafe {

// Identifies a registered untrusted library. Index 0 is reserved for the
// trusted compartment itself.
using LibraryId = uint32_t;
inline constexpr LibraryId kTrustedLibrary = 0;

struct MultiCompartmentConfig {
  size_t library_pool_bytes = size_t{1} << 30;
  // Hardware key slots backing the virtual keys; 0 = every key the backend
  // can still allocate. Tests set small values to force evictions.
  size_t max_hw_slots = 0;
};

class MultiCompartment {
 public:
  // Creates the virtual-key cache over `pools`' backend; every library mask
  // denies `pools`' trusted key. The allocator must outlive the compartment
  // manager.
  static Result<std::unique_ptr<MultiCompartment>> Create(
      PkAllocator* pools, const MultiCompartmentConfig& config = {});

  MultiCompartment(const MultiCompartment&) = delete;
  MultiCompartment& operator=(const MultiCompartment&) = delete;

  // Registers an untrusted library: mints its virtual key and tags its
  // private pool — a released library's pool when one is free, else a newly
  // reserved one. The count is unbounded — libraries beyond the hardware
  // slot capacity time-share slots through eviction.
  Result<LibraryId> RegisterLibrary(const std::string& name);

  // Tears down a dead tenant's compartment: returns its virtual key (and
  // hardware slot, if resident) to the cache and its pool pages to the OS,
  // then puts the id, pool reservation and heap on the free list for the
  // next RegisterLibrary (see "Recycling" above).
  //
  // Quarantine contract: a key still pinned by an in-flight EnterLibrary
  // refuses release with FailedPrecondition and NOTHING is torn down — the
  // caller keeps the session quarantined and retries once its requests
  // drain. After success the id is dead until it is handed out again;
  // racing ownership scans on other threads stay safe, but EnterLibrary /
  // AllocateIn on the released id are caller bugs (the former dies, the
  // latter returns nullptr until the id is reused).
  Status ReleaseLibrary(LibraryId library);

  // Faults the working set's virtual keys into hardware slots ahead of a
  // request batch, without pinning — the batch's EnterLibrary calls then
  // take the lock-free resident fast path instead of each paying a locked
  // fault-in (and possibly an eviction barrier) mid-request. Released ids
  // are skipped; unknown ids are an error.
  Status PrefaultWorkingSet(const std::vector<LibraryId>& working_set);

  // --- allocation ---
  // From a library's private pool; nullptr on exhaustion. M_T and M_U come
  // from the PkAllocator directly.
  void* AllocateIn(LibraryId library, size_t size);
  // Frees a pointer of the allocator's pools or of a live library's pool;
  // any other pointer is a fatal error (multidomain.free.foreign).
  void Free(void* ptr);

  // Which compartment's pool owns `ptr`: kTrustedLibrary for M_T, the
  // library id for a private pool, nullopt for M_U or foreign pointers
  // (shared memory belongs to everyone).
  std::optional<LibraryId> PrivateOwnerOf(const void* ptr) const;

  // --- transitions ---
  // Enters `library`'s compartment: faults its virtual key in if evicted,
  // pins it for the scope, and installs a PKRU that allows only key 0 (M_U)
  // and the library's hardware slot. Balanced by ExitLibrary; nesting across
  // different libraries is allowed (each level holds a pin, so nesting
  // depth across distinct libraries is bounded by the hardware slot count)
  // and restores exactly.
  void EnterLibrary(LibraryId library);
  void ExitLibrary();

  // RAII wrapper.
  class Scope {
   public:
    Scope(MultiCompartment& mc, LibraryId library) : mc_(mc) { mc_.EnterLibrary(library); }
    ~Scope() { mc_.ExitLibrary(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    MultiCompartment& mc_;
  };

  // The PKRU value that running inside `library` uses (exposed for tests).
  // Faults the library's key in as a side effect — the mask only exists for
  // resident keys.
  PkruValue PolicyFor(LibraryId library);

  // Library table entries: the peak number of live libraries, since released
  // entries are reused before the table grows.
  size_t library_count() const;
  // Registered minus released.
  size_t live_library_count() const;
  std::string library_name(LibraryId id) const;
  // The hardware key currently tagging the library's pool: its slot key when
  // resident, the shared evicted key otherwise.
  PkeyId key_of(LibraryId id) const;
  bool library_resident(LibraryId id) const;
  uint64_t transition_count() const { return transitions_.load(std::memory_order_relaxed); }

  // Virtual-key cache counters (hits/misses/evictions/retag traffic).
  VpkeyStats vpkey_stats() const;

 private:
  struct Library {
    std::string name;  // guarded by mu_ (rewritten on reuse)
    // Read lock-free by EnterLibrary; rewritten under mu_ on reuse.
    std::atomic<VirtualKeyId> vkey{0};
    // Created with the entry and kept for its lifetime: release decommits
    // the arena and resets the heap in place, reuse re-tags the same arena.
    std::unique_ptr<Arena> arena;
    std::unique_ptr<FreeListHeap> heap;
    // Lock-free scanner view of `heap`: non-null while the library is live,
    // null while released. A scanner that loaded the pointer just before a
    // release still dereferences a valid heap over a valid reservation.
    std::atomic<FreeListHeap*> live_heap{nullptr};
  };

  MultiCompartment(PkAllocator* pools, MultiCompartmentConfig config)
      : pools_(pools), backend_(&pools->backend()), config_(config) {}

  // Lock-free: published entries are never moved or freed.
  PS_ALWAYS_INLINE Library& LibraryAt(LibraryId id) {
    PS_CHECK_GE(id, 1u);
    Library* library = libraries_.at(id - 1);
    PS_CHECK(library != nullptr) << "unknown library id " << id;
    return *library;
  }
  PS_ALWAYS_INLINE const Library& LibraryAt(LibraryId id) const {
    return const_cast<MultiCompartment*>(this)->LibraryAt(id);
  }

  PkAllocator* pools_;  // M_T and M_U
  MpkBackend* backend_;
  MultiCompartmentConfig config_;

  // Guards registration (the libraries_ writer side), free_ids_ and every
  // vpkeys_ mutation: fault-in, eviction, release, stats. Lock-free reads of
  // published Library entries and the vpkey pin fast path take no lock.
  mutable std::mutex mu_;
  StableIndexArray<Library> libraries_;
  // Released ids whose entries wait for reuse.
  std::vector<LibraryId> free_ids_;
  std::unique_ptr<VirtualPkeyTable> vpkeys_;

  // Lossy (plain load+store): the transition fast path pays no RMW. Exact
  // single-threaded; may undercount when transitions race.
  std::atomic<uint64_t> transitions_{0};
};

}  // namespace pkrusafe

#endif  // SRC_MULTIDOMAIN_MULTI_COMPARTMENT_H_
