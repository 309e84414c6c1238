// Live-object provenance tracking (paper Fig. 2).
//
// During a profiling build, every trusted allocation is registered here with
// its AllocId, address and size. When untrusted code faults on a trusted
// address, the fault handler looks the address up — anywhere inside the
// object — and records the AllocId into the profile. Reallocation carries the
// original AllocId forward (§4.3.1), so an object keeps its provenance for
// its whole lifetime regardless of resizing.
#ifndef SRC_RUNTIME_PROVENANCE_H_
#define SRC_RUNTIME_PROVENANCE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/memmap/interval_map.h"
#include "src/runtime/alloc_id.h"
#include "src/support/status.h"

namespace pkrusafe {

class ProvenanceTracker {
 public:
  struct Record {
    uintptr_t base = 0;
    size_t size = 0;
    AllocId id;
  };

  // Registers a new live object. Overlapping registrations fail.
  Status OnAlloc(const void* ptr, size_t size, AllocId id);

  // Transfers provenance from `old_ptr` to `new_ptr` (same AllocId). The two
  // may be equal (in-place realloc).
  Status OnRealloc(const void* old_ptr, const void* new_ptr, size_t new_size);

  // Unregisters a live object; `ptr` must be its base.
  Status OnFree(const void* ptr);

  // The record owning `addr` (any interior address), if tracked.
  std::optional<Record> Lookup(uintptr_t addr) const;

  // Signal-context variant: takes the mutex with a bounded try_lock retry
  // (rounds of kSignalLockSpins spins separated by sched_yield, for at most
  // kSignalLockBudgetNs), so another thread's holds are waited out even when
  // that thread is preempted mid-hold, while a faulting thread that itself
  // holds the mutex (a re-entrant fault, or a crash inside OnAlloc/OnFree)
  // gives up instead of deadlocking. Returns false when the lock stayed
  // unavailable (provenance then reads "unavailable" in a crash report);
  // sets `found`/`record` on success. Does not allocate.
  bool LookupForSignal(uintptr_t addr, bool* found, Record* record) const;

  // Signal-context range query: copies up to `max` records overlapping
  // [lo, hi) into `out` and returns how many were written, or -1 when the
  // mutex stayed unavailable (same bounded retry as LookupForSignal). Used
  // by the fault handler to re-check a single-step window at latch time.
  // Does not allocate.
  int RecordsInRangeForSignal(uintptr_t lo, uintptr_t hi, Record* out, int max) const;

  // All live objects allocated at `id`, in address order. Not signal-safe
  // (takes the mutex, allocates); used by online re-partitioning to find the
  // pages of a just-promoted site.
  std::vector<Record> RecordsForSite(AllocId id) const;

  size_t live_count() const;
  void Clear();

  static constexpr int kSignalLockSpins = 128;
  static constexpr uint64_t kSignalLockBudgetNs = 250'000'000;

 private:
  bool TryLockForSignal() const;

  mutable std::mutex mutex_;
  IntervalMap<Record> objects_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROVENANCE_H_
