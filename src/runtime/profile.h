// The sharing profile: the set of trusted allocation sites observed crossing
// the compartment boundary, with fault counts.
//
// Produced by profiling runs, consumed by the enforcement build (the
// ProfileApplyPass rewrites exactly these sites to allocate from M_U). This
// is the in-memory map only; on disk a profile is always a ProfileArtifact
// (src/runtime/profile_artifact.h), which adds the IR hash the site ids were
// recorded against, per-epoch provenance and a checksum.
#ifndef SRC_RUNTIME_PROFILE_H_
#define SRC_RUNTIME_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/support/async_signal.h"
#include "src/support/status.h"

namespace pkrusafe {

class Profile {
 public:
  Profile() = default;

  void Add(AllocId id, uint64_t count = 1) { counts_[id] += count; }

  // Like Add, but fails instead of wrapping when the merged count would
  // overflow uint64_t. Used by the artifact parser, which is fed untrusted
  // input.
  Status AddChecked(AllocId id, uint64_t count);

  bool Contains(AllocId id) const { return counts_.contains(id); }
  uint64_t CountFor(AllocId id) const {
    auto it = counts_.find(id);
    return it == counts_.end() ? 0 : it->second;
  }
  size_t site_count() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  // Sites in deterministic (sorted) order.
  std::vector<AllocId> Sites() const;
  // Sum of every site's count, saturating at UINT64_MAX.
  uint64_t TotalCount() const;

  // Folds `other` into this profile (per-site counts add, saturating).
  void Merge(const Profile& other);

 private:
  std::unordered_map<AllocId, uint64_t, AllocIdHasher> counts_;
};

// Fault sink used by the profiling fault handler, callable from SIGSEGV
// context on any number of threads at once.
//
// The paper records each AllocId once per unique site (§4.3.2); we
// additionally keep fault counts for diagnostics. The previous implementation
// guarded a Profile with a std::mutex — taken from the signal handler, which
// both allocates (unordered_map rehash) and deadlocks if the interrupted
// thread holds the lock (e.g. a fault landing inside TakeProfile). Recording
// now writes into fixed-size per-thread hash tables drawn from a static pool:
// no locks, no allocation, nothing but atomics on the signal path. The
// tables are flushed (merged into a Profile) outside signal context by
// TakeProfile.
//
// Reset() and the destructor release this recorder's tables back to the pool
// and must not race RecordFault — quiesce profiling faults first (the runtime
// uninstalls the fault handler before dropping its recorder).
class ProfileRecorder {
 public:
  ProfileRecorder();
  ~ProfileRecorder();
  ProfileRecorder(const ProfileRecorder&) = delete;
  ProfileRecorder& operator=(const ProfileRecorder&) = delete;

  // Async-signal-safe; concurrent callers never contend beyond one CAS per
  // new site (each thread records into its own table).
  PKRUSAFE_AS_SAFE void RecordFault(AllocId id);

  // Snapshot of everything recorded so far. Safe to call while other threads
  // are still faulting (in-flight increments may be missed by the snapshot).
  Profile TakeProfile() const;

  uint64_t total_faults() const { return total_faults_.load(std::memory_order_relaxed); }

  // Faults that could not be recorded: per-thread table full (too many
  // distinct sites for one thread) or table pool exhausted (too many
  // thread × recorder claims). They still count toward total_faults().
  uint64_t dropped_faults() const { return dropped_faults_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  // Identifies this recorder's claim on pool tables across its lifetime
  // (pool slots are tagged (serial, tid)).
  const uint32_t serial_;
  std::atomic<uint64_t> total_faults_{0};
  std::atomic<uint64_t> dropped_faults_{0};
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROFILE_H_
