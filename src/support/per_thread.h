// One slot per (thread, owner): the per-thread counter primitive.
//
// Counts that every thread bumps on a hot path (gate crossings, virtual-key
// pins, the allocator's cached traffic) live in a slot owned by the counting
// thread, which writes it with relaxed load+store: no RMW, no shared cache
// line. A read sums the exited threads' totals and every live slot under the
// owner's mutex; it is exact once the writers are quiescent.
//
// Lifecycle of thread t's slot for owner o:
//   * owner ids are process-unique, so t's slot for a dead owner never
//     resolves for a new owner at the same address;
//   * Local() memoizes the last (id, slot) per slot type in plain TLS (one
//     id compare); owners of different slot types keep separate memos;
//   * t's first Local() creates the slot and registers it under o's mutex;
//   * at t's exit the slot's OnThreadExit() hook runs, if it has one, and its
//     counts fold into o's retired total;
//   * destroying o detaches the surviving slots (OnOwnerDestroyed(), if
//     any); t frees its detached records before it creates its next record,
//     or at exit, so a thread holds at most one record per live owner plus
//     the dead owners' records since its last new one.
// Thread exit and owner destruction serialize on one mutex per slot type.
//
// A Slot provides `using Counts = ...` (default-constructible totals) and
// `void AddTo(Counts&) const`, which runs on any thread, so the fields it
// reads must be atomics.
#ifndef SRC_SUPPORT_PER_THREAD_H_
#define SRC_SUPPORT_PER_THREAD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/support/compiler.h"

namespace pkrusafe {

namespace per_thread_internal {
// Shared by every slot type; 0 is the empty memo.
inline std::atomic<uint64_t> g_next_owner_id{1};
}  // namespace per_thread_internal

template <typename Slot>
class PerThread {
 public:
  using Counts = typename Slot::Counts;

  PerThread() = default;

  // No thread may use the owner concurrently; threads that used it may
  // still be running, or exit later.
  ~PerThread() {
    std::lock_guard detach(detach_mu_);
    std::lock_guard lock(mu_);
    for (Record* record : live_) {
      record->owner = nullptr;
      if constexpr (requires(Slot& slot) { slot.OnOwnerDestroyed(); }) {
        record->slot.OnOwnerDestroyed();
      }
    }
  }

  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  uint64_t id() const { return id_; }

  // The calling thread's slot, constructed from `args` on first use.
  template <typename... Args>
  PS_ALWAYS_INLINE Slot& Local(Args&&... args) {
    const Memo& memo = tls_memo;
    if (memo.id == id_) [[likely]] {
      return *memo.slot;
    }
    return LocalSlow(std::forward<Args>(args)...);
  }

  // Records the calling thread holds of this slot type.
  static size_t LocalRecordCount() { return tls_slots.records.size(); }

  // Exited threads' totals plus every live slot's counts.
  Counts Sum() const {
    std::lock_guard lock(mu_);
    Counts total = retired_;
    for (const Record* record : live_) {
      record->slot.AddTo(total);
    }
    return total;
  }

 private:
  struct Record {
    template <typename... Args>
    Record(PerThread* owner_in, Args&&... args)
        : slot(std::forward<Args>(args)...), owner(owner_in), id(owner_in->id_) {}
    Slot slot;
    PerThread* owner;  // null once the owner is destroyed; guarded by detach_mu_
    const uint64_t id;
  };

  struct Memo {
    uint64_t id = 0;
    Slot* slot = nullptr;
  };

  // The calling thread's slots of this type, one per owner it used.
  struct ThreadSlots {
    std::vector<Record*> records;
    ~ThreadSlots() {
      tls_memo = Memo{};
      std::lock_guard detach(detach_mu_);
      for (Record* record : records) {
        if (record->owner != nullptr) {
          record->owner->Retire(record);
        }
        delete record;
      }
    }
  };

  template <typename... Args>
  PS_NOINLINE Slot& LocalSlow(Args&&... args) {
    ThreadSlots& slots = tls_slots;
    auto it = std::find_if(slots.records.begin(), slots.records.end(),
                           [&](const Record* record) { return record->id == id_; });
    Record* record = it != slots.records.end() ? *it : nullptr;
    if (record == nullptr) {
      {
        // Records whose owner is gone are only waiting to be freed.
        std::lock_guard detach(detach_mu_);
        std::erase_if(slots.records, [](Record* dead) {
          if (dead->owner != nullptr) {
            return false;
          }
          delete dead;
          return true;
        });
      }
      record = new Record(this, std::forward<Args>(args)...);
      std::lock_guard lock(mu_);
      live_.push_back(record);
      slots.records.push_back(record);
    }
    tls_memo = Memo{id_, &record->slot};
    return record->slot;
  }

  // Thread-exit path, under detach_mu_: the owner cannot die meanwhile.
  void Retire(Record* record) {
    if constexpr (requires(Slot& slot) { slot.OnThreadExit(); }) {
      record->slot.OnThreadExit();
    }
    std::lock_guard lock(mu_);
    record->slot.AddTo(retired_);
    std::erase(live_, record);
  }

  // Constant-initialized: the fast path pays no TLS guard.
  static inline thread_local Memo tls_memo;
  // Touched only off the fast path.
  static inline thread_local ThreadSlots tls_slots;
  // Orders thread exits against owner destruction, per slot type.
  static inline std::mutex detach_mu_;

  const uint64_t id_ =
      per_thread_internal::g_next_owner_id.fetch_add(1, std::memory_order_relaxed);
  mutable std::mutex mu_;
  std::vector<Record*> live_;
  Counts retired_{};
};

// A PerThread slot of kN counters. `Tag` (the owner's class) makes the slot
// type, and so the TLS memo, distinct per kind of owner.
template <typename Tag, size_t kN>
struct CounterSlot {
  using Counts = std::array<uint64_t, kN>;

  // Owning thread only: a relaxed load+store, no RMW.
  PS_ALWAYS_INLINE void Add(size_t i, uint64_t delta = 1) {
    values[i].store(values[i].load(std::memory_order_relaxed) + delta,
                    std::memory_order_relaxed);
  }

  void AddTo(Counts& total) const {
    for (size_t i = 0; i < kN; ++i) {
      total[i] += values[i].load(std::memory_order_relaxed);
    }
  }

  std::array<std::atomic<uint64_t>, kN> values{};
};

}  // namespace pkrusafe

#endif  // SRC_SUPPORT_PER_THREAD_H_
