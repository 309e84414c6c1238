// Thread-safe map from page ranges to protection keys.
//
// This models the protection-key field of the page tables: the sim backend
// consults it on every checked access, the mprotect backend uses it to
// translate PKRU writes into mprotect calls over the affected ranges, and
// the crash-forensics path queries it from inside SIGSEGV.
//
// The map is one sorted array of ranges, the published snapshot. The read
// path is lock-free: readers load the snapshot pointer and binary-search it
// (no lock, no allocation), so KeyFor/IsTagged/RangesAround are
// async-signal-safe and cheap on the sim backend's per-access check.
// Writers serialize on a mutex, search the same snapshot, and mutate it one
// of two ways:
//
//  - An exact re-tag (the same range, another key: every vpkey miss makes
//    two) changes no bounds, so it stores the new key into the published
//    snapshot in place. Each snapshot range holds its key as an atomic, so a
//    concurrent reader sees the old key or the new one, the same outcome as
//    racing the pkey_mprotect that re-tags the pages. Nothing is rebuilt,
//    published or retired, and the cost does not grow with the range count.
//  - Inserting or removing a range (region creation/teardown) rebuilds the
//    sorted snapshot and publishes it with one store.
//
// Retired snapshots are reclaimed with a global epoch / grace-period scheme
// (see page_key_map.cc): every reader stamps the current epoch into a
// per-thread slot for the duration of its read; a writer retires the old
// snapshot at the epoch it advances to and frees any retired snapshot whose
// retire epoch precedes every active reader's stamp. This bounds retired_
// (pkalloc span churn used to leak every superseded snapshot for process
// lifetime) while keeping signal-context readers safe: the stamp protocol is
// reentrant, so a SIGSEGV arriving mid-read extends the outer read's grace
// period instead of ending it.
#ifndef SRC_MPK_PAGE_KEY_MAP_H_
#define SRC_MPK_PAGE_KEY_MAP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/mpk/pkey.h"
#include "src/support/async_signal.h"
#include "src/support/status.h"

namespace pkrusafe {

class PageKeyMap {
 public:
  struct TaggedRange {
    uintptr_t begin;
    uintptr_t end;
    PkeyId key;
  };

  PageKeyMap() = default;
  ~PageKeyMap();
  PageKeyMap(const PageKeyMap&) = delete;
  PageKeyMap& operator=(const PageKeyMap&) = delete;

  // Tags [addr, addr+length) with `key`. Both bounds must be page-aligned.
  // Retagging an identical existing range is allowed (pkey_mprotect
  // semantics) and updates the key in place without publishing a snapshot;
  // partially overlapping ranges are rejected. When `replaced` is given, it
  // receives the key an exact re-tag replaced, or nullopt for a new range.
  Status Tag(uintptr_t addr, size_t length, PkeyId key,
             std::optional<PkeyId>* replaced = nullptr);

  // Removes the tag for the range starting at `addr` (e.g. on unmap).
  Status Untag(uintptr_t addr);

  // The key governing `addr`; kDefaultPkey when untagged. Lock-free.
  PKRUSAFE_AS_SAFE PkeyId KeyFor(uintptr_t addr) const;

  // Whether `addr` lies in any explicitly tagged range. Lock-free.
  PKRUSAFE_AS_SAFE bool IsTagged(uintptr_t addr) const;

  // The tagged range that begins exactly at `addr`, if any. Lock-free.
  std::optional<TaggedRange> RangeStartingAt(uintptr_t addr) const;

  // Async-signal-safe neighborhood query for the crash reporter: copies up
  // to `max` tagged ranges around `addr` (the containing/nearest range plus
  // its neighbors, in address order) into `out` and returns how many were
  // written.
  PKRUSAFE_AS_SAFE size_t RangesAround(uintptr_t addr, TaggedRange* out, size_t max) const;

  // Snapshot of all ranges tagged with `key`.
  std::vector<TaggedRange> RangesForKey(PkeyId key) const;

  PKRUSAFE_AS_SAFE size_t range_count() const;

  // Superseded snapshots currently awaiting their grace period. Bounded by
  // the number of concurrently active readers (plus a small constant), never
  // by the mutation count — the regression test churns Tag/Untag and asserts
  // this stays flat.
  size_t retired_snapshot_count() const;

 private:
  // A published range. Its bounds never change; an exact re-tag stores a
  // new key while readers may be loading it.
  struct Entry {
    uintptr_t begin = 0;
    uintptr_t end = 0;
    mutable std::atomic<PkeyId> key{kDefaultPkey};

    PKRUSAFE_AS_SAFE TaggedRange Load() const {
      return TaggedRange{begin, end, key.load(std::memory_order_acquire)};
    }
    // Fills an entry of a snapshot that is not yet published.
    void Set(const TaggedRange& range) {
      begin = range.begin;
      end = range.end;
      key.store(range.key, std::memory_order_relaxed);
    }
  };

  // `ranges` is sorted by begin and never resized once published.
  struct Snapshot {
    explicit Snapshot(size_t count) : ranges(count) {}
    std::vector<Entry> ranges;
  };

  struct RetiredSnapshot {
    const Snapshot* snapshot;
    uint64_t retire_epoch;
  };

  // Loads the current snapshot under the caller's reader stamp (the caller
  // must hold an EpochReadGuard, see page_key_map.cc).
  PKRUSAFE_AS_SAFE const Snapshot* LoadSnapshot() const {
    return snapshot_.load(std::memory_order_seq_cst);
  }
  // Publishes `fresh`, retiring the current snapshot and freeing every
  // retired snapshot past its grace period; caller holds mutex_.
  void PublishLocked(std::unique_ptr<Snapshot> fresh);

  mutable std::mutex mutex_;  // serializes writers; readers never take it
  // The one copy of the map: writers read it under mutex_, since only they
  // replace it.
  std::atomic<const Snapshot*> snapshot_{nullptr};
  std::deque<RetiredSnapshot> retired_;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_PAGE_KEY_MAP_H_
