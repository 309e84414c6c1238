// Virtual protection keys: unbounded compartments over 16 hardware keys.
//
// Hardware MPK exposes 16 keys; the multi-tenant north star needs thousands
// of compartments. Following libmpk (PAPERS.md), this layer virtualizes the
// key space: every compartment gets a VirtualKeyId with no bound, and the
// hardware keys the backend can actually allocate become an eviction cache
// of "slots". A virtual key is either
//
//   * resident  — bound to one hardware slot; its pages carry that slot's
//                 key, so the PKRU deny-mask mechanism works unchanged; or
//   * evicted   — its pages are lazily re-tagged (TagRange / pkey_mprotect)
//                 to one reserved hardware key, the evicted key, which every
//                 composed deny-mask disables. Evicted compartments are
//                 therefore inaccessible to *every* untrusted compartment,
//                 not just unreachable — ERIM-style key discipline holds.
//
// Entering an evicted compartment faults its key back in: a victim slot is
// chosen (the least-recently-entered unpinned resident), the victim's pages are re-tagged to the evicted
// key, and the entrant's pages are re-tagged to the slot's hardware key.
// Residents in active use are pinned and never victimized, so a thread's
// installed PKRU can never refer to a slot that was re-bound underneath it.
//
// Security argument for the deny-mask: the slot set is fixed at Create time
// (keys are claimed from the backend eagerly), and every composed mask
// denies the evicted key, the caller's always-deny keys (the trusted pool),
// and every slot key except the entrant's own. Pages can only ever carry a
// slot key or the evicted key, so a compartment's mask denies every page of
// every other compartment — resident or evicted — by construction, and the
// mask is O(slots) to build, not O(compartments).
//
// Concurrency: mutating operations (fault-in, eviction, registration,
// release, TagRange) are externally synchronized — the owner serializes
// them under its own mutex. The *pin* path is different: a resident-key
// entry must cost no more than the pre-virtualization transition, so
// TryPinFast/UnpinFast run with no lock and no atomic RMW. Pins live in
// per-thread records (a hazard-pointer-style registry): the fast path
// publishes (table, vkey) with a release store and reads the slot binding;
// the evictor — already slow, it re-tags whole pools — unbinds the victim,
// executes a process-wide barrier (membarrier(2), falling back to seq_cst
// fences when unavailable), and rescans the records. Either the evictor
// observes the pin and aborts, or the pinner observes the unbind and takes
// the locked slow path. Pin/unpin are LIFO per thread for UnpinFast;
// Unpin(vkey) tolerates out-of-order release by punching holes.
//
// Pins are counted per thread (src/support/per_thread.h) and hits are pins
// minus the misses the locked path counts, so every counter is exact once
// the pinning threads are quiescent. The LRU clock is policy, not a stat:
// relaxed load+store on the fast path, it may drop ticks when pins race.
#ifndef SRC_MULTIDOMAIN_VPKEY_H_
#define SRC_MULTIDOMAIN_VPKEY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/mpk/backend.h"
#include "src/multidomain/pin_registry.h"
#include "src/support/compiler.h"
#include "src/support/logging.h"
#include "src/support/per_thread.h"
#include "src/support/stable_index_array.h"

namespace pkrusafe {

namespace vpkey_internal {
// True once membarrier(PRIVATE_EXPEDITED) registration succeeded (decided at
// the first table's Create). False means fast pins carry their own seq_cst
// fence — the conservative default, so the flag can flip at most once and
// only ever relaxes the pin path after the barrier is known to work.
inline std::atomic<bool> g_membarrier_ready{false};
}  // namespace vpkey_internal

// Identifies one virtual protection key. Ids are dense, reused after
// ReleaseVirtualKey, and bounded only by the table capacity (64Ki).
using VirtualKeyId = uint32_t;

struct VpkeyConfig {
  // Hardware slots to claim from the backend. 0 = every key the backend will
  // give (beyond the one reserved as the evicted key). Tests set small values
  // to force evictions and to leave keys for other backend users.
  size_t max_hw_slots = 0;
  // Keys disabled in every composed deny-mask in addition to the slot keys
  // and the evicted key (the owner passes its trusted-pool key here).
  std::vector<PkeyId> always_deny;
};

struct VpkeyStats {
  uint64_t hits = 0;         // pins served by a resident key
  uint64_t misses = 0;       // pins that had to fault in
  uint64_t evictions = 0;    // residents re-tagged out to make room
  uint64_t retag_bytes = 0;  // bytes re-tagged by fault-in + eviction
  uint64_t retag_ns = 0;     // wall time spent in backend TagRange for those
  size_t resident = 0;       // virtual keys currently bound to a slot
  size_t virtual_keys = 0;   // live virtual keys
  size_t hw_slots = 0;       // hardware slots in the cache
};

class VirtualPkeyTable {
 public:
  // Pins deeper than this per thread (nested scopes) fail ResourceExhausted;
  // the hardware slot pool (< 16) runs out long before this does, except
  // when one compartment is re-entered recursively.
  static constexpr uint32_t kMaxPinDepth = pin_registry::kMaxPinDepth;

  // Claims the evicted key plus up to `config.max_hw_slots` slot keys from
  // the backend (which must outlive the table). Fails when the backend
  // cannot supply at least the evicted key and one slot.
  static Result<std::unique_ptr<VirtualPkeyTable>> Create(MpkBackend* backend,
                                                          const VpkeyConfig& config = {});

  // Returns every claimed hardware key to the backend.
  ~VirtualPkeyTable();

  VirtualPkeyTable(const VirtualPkeyTable&) = delete;
  VirtualPkeyTable& operator=(const VirtualPkeyTable&) = delete;

  // Mints a new virtual key (evicted, no ranges).
  Result<VirtualKeyId> AllocateVirtualKey();

  // Destroys `vkey`, freeing its slot if resident. The key must be unpinned;
  // any ranges still registered are re-tagged to the evicted key first so a
  // dying compartment's pages stay locked. Used by owners' registration
  // error paths and compartment teardown.
  Status ReleaseVirtualKey(VirtualKeyId vkey);

  // Tags [addr, addr+length) as belonging to `vkey`: the range is recorded
  // for future re-tags and tagged with the key's current hardware identity
  // (slot key when resident, the evicted key otherwise).
  Status TagRange(VirtualKeyId vkey, uintptr_t addr, size_t length);

  // --- pinning ---
  // TryPinFast: lock-free pin of an already-resident key. Returns the PKRU
  // deny-mask for running inside the compartment (everything disabled except
  // key 0 and the key's own slot), or nullopt when the key is evicted, the
  // id unknown, or this thread's pin stack is full — the caller must then
  // take its lock and use PinResident, which faults the key in. Balance
  // every successful pin with UnpinFast (LIFO) or Unpin.
  PS_ALWAYS_INLINE std::optional<PkruValue> TryPinFast(VirtualKeyId vkey);

  // Drops this thread's most recent pin (which must belong to this table).
  // Lock-free; call only after the pinned mask is no longer installed.
  PS_ALWAYS_INLINE void UnpinFast();

  // Locked pin: ensures `vkey` is resident (faulting it in, evicting a
  // victim if every slot is taken) and pins it. Fails when every slot is
  // pinned (nesting deeper than the slot count) or a re-tag fails.
  // Externally synchronized.
  Result<PkruValue> PinResident(VirtualKeyId vkey);

  // Unpins a specific key pinned by this thread, tolerating out-of-LIFO
  // order. Lock-free.
  void Unpin(VirtualKeyId vkey);

  // The deny-mask `vkey` would run with, without leaving it pinned (faults
  // the key in as a side effect). Externally synchronized.
  Result<PkruValue> PolicyFor(VirtualKeyId vkey);

  // The hardware key currently tagging `vkey`'s pages.
  PkeyId CurrentHardwareKey(VirtualKeyId vkey) const;
  bool IsResident(VirtualKeyId vkey) const;

  PkeyId evicted_key() const { return evicted_key_; }
  size_t hw_slot_count() const { return slots_.size(); }

  // Pins minus misses, floored: a racing read may see a miss before its pin.
  // Safe to call from any thread.
  uint64_t hits() const;

  // Snapshot of the cache counters. Externally synchronized. The hit count
  // is this table's share of the multidomain.vpkey.hits gauge, which sums
  // every live table.
  VpkeyStats stats() const;

 private:
  struct Range {
    uintptr_t addr = 0;
    size_t length = 0;
  };

  static constexpr uint8_t kNoSlot = 0xFF;
  static constexpr VirtualKeyId kNoHolder = ~0u;

  struct Slot {
    PkeyId key = kDefaultPkey;
    VirtualKeyId holder = kNoHolder;
  };

  struct VKeyState {
    // Read by the lock-free pin path; written on fault-in/eviction under the
    // owner's lock. `slot` is the linchpin: a release store of a real slot
    // index publishes `mask` (and the page re-tags) to fast pinners.
    std::atomic<uint8_t> slot{kNoSlot};
    std::atomic<uint32_t> mask{0};  // PKRU raw for the current slot
    // Lossy LRU clock for victim selection (relaxed load+store, see header).
    std::atomic<uint64_t> last_use{0};
    // Owner-lock-guarded.
    bool alive = false;
    std::vector<Range> ranges;
  };

  VirtualPkeyTable(MpkBackend* backend, VpkeyConfig config)
      : backend_(backend), config_(std::move(config)) {}

  bool resident(const VKeyState& state) const {
    return state.slot.load(std::memory_order_acquire) != kNoSlot;
  }
  VKeyState* FindAlive(VirtualKeyId vkey);
  const VKeyState* FindAlive(VirtualKeyId vkey) const;

  // Counts a successful pin and bumps the lossy LRU clock.
  PS_ALWAYS_INLINE void NotePin(VKeyState& state);

  // Scans every thread's pin record for a live pin of (this, vkey). Only
  // authoritative after a HeavyBarrier that followed the slot unbind; may
  // report a pin that is concurrently being abandoned (safe direction).
  bool ActiveAnywhere(VirtualKeyId vkey) const;

  // Re-tags every recorded range of `state` to `key`, accounting bytes/ns.
  Status RetagAll(VKeyState& state, PkeyId key);

  // Unbinds `state` from its slot with the publish/barrier/rescan dance;
  // fails kUnavailable when a concurrent fast pin won the race.
  Status MakeNonResident(VirtualKeyId vkey, VKeyState& state);

  // The least-recently-entered slot among unpinned residents not in
  // `excluded`; slots_.size() when none qualifies.
  size_t PickVictimSlot(const std::vector<bool>& excluded) const;

  Status FaultIn(VirtualKeyId vkey, VKeyState& state);

  MpkBackend* backend_;
  VpkeyConfig config_;
  PkeyId evicted_key_ = kDefaultPkey;
  std::vector<Slot> slots_;
  // base_mask_ = deny evicted + always_deny + every slot key; a compartment's
  // mask is base_mask_ with its own slot key re-allowed. Precomputed once —
  // composing a mask is O(1).
  PkruValue base_mask_;
  // Stable addresses + lock-free indexing: the fast pin path reads states
  // while AllocateVirtualKey appends.
  StableIndexArray<VKeyState> states_;
  std::vector<VirtualKeyId> free_ids_;
  std::atomic<uint64_t> tick_{0};  // lossy LRU clock
  size_t live_keys_ = 0;
  size_t resident_count_ = 0;
  // Written under the owner's lock; atomic for the hits gauge's reads.
  std::atomic<uint64_t> misses_{0};
  uint64_t evictions_ = 0;
  uint64_t retag_bytes_ = 0;
  uint64_t retag_ns_ = 0;
  PerThread<CounterSlot<VirtualPkeyTable, 1>> pins_;
};

// --- pin fast path (inline: one compartment entry per call site) ---

inline void VirtualPkeyTable::NotePin(VKeyState& state) {
  pins_.Local().Add(0);
  // Lossy on purpose: plain load+store keeps the pin fast path free of RMWs.
  // Concurrent pins may drop ticks; victim selection only needs a rough
  // ordering.
  const uint64_t t = tick_.load(std::memory_order_relaxed) + 1;
  tick_.store(t, std::memory_order_relaxed);
  state.last_use.store(t, std::memory_order_relaxed);
}

inline std::optional<PkruValue> VirtualPkeyTable::TryPinFast(VirtualKeyId vkey) {
  pin_registry::PinRecord* rec = pin_registry::CurrentRecord();
  const uint32_t depth = rec->depth.load(std::memory_order_relaxed);
  if (depth >= kMaxPinDepth) {
    return std::nullopt;
  }
  VKeyState* state = states_.at(vkey);
  if (state == nullptr) {
    return std::nullopt;
  }
  // Publish the pin, then read the binding. With membarrier available the
  // two need only program order: the evictor's barrier serializes every
  // running thread, so either its rescan sees this entry or this load sees
  // its unbind. Without membarrier both sides carry seq_cst fences.
  rec->entries[depth].table.store(this, std::memory_order_relaxed);
  rec->entries[depth].vkey.store(vkey, std::memory_order_relaxed);
  rec->depth.store(depth + 1, std::memory_order_release);
  if (!vpkey_internal::g_membarrier_ready.load(std::memory_order_relaxed)) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  const uint8_t slot = state->slot.load(std::memory_order_acquire);
  if (slot == kNoSlot) {
    // Evicted (or mid-eviction, or a dead id): abandon the pin and let the
    // caller take the locked fault-in path.
    rec->depth.store(depth, std::memory_order_release);
    return std::nullopt;
  }
  NotePin(*state);
  return PkruValue(state->mask.load(std::memory_order_relaxed));
}

inline void VirtualPkeyTable::UnpinFast() {
  pin_registry::PinRecord* rec = pin_registry::CurrentRecord();
  uint32_t depth = rec->depth.load(std::memory_order_relaxed);
  PS_CHECK_GT(depth, 0u) << "UnpinFast with no pin held";
  rec->entries[depth - 1].table.store(nullptr, std::memory_order_relaxed);
  while (depth > 0 &&
         rec->entries[depth - 1].table.load(std::memory_order_relaxed) == nullptr) {
    --depth;  // pop the entry plus any holes left by out-of-LIFO Unpins
  }
  rec->depth.store(depth, std::memory_order_release);
}

inline void VirtualPkeyTable::Unpin(VirtualKeyId vkey) {
  pin_registry::PinRecord* rec = pin_registry::CurrentRecord();
  uint32_t depth = rec->depth.load(std::memory_order_relaxed);
  for (uint32_t i = depth; i > 0; --i) {
    pin_registry::PinEntry& entry = rec->entries[i - 1];
    if (entry.table.load(std::memory_order_relaxed) == this &&
        entry.vkey.load(std::memory_order_relaxed) == vkey) {
      // Punch a hole; never shift survivors down (a concurrent eviction scan
      // could miss a pin that moved under it). Holes at the top compact.
      entry.table.store(nullptr, std::memory_order_relaxed);
      while (depth > 0 &&
             rec->entries[depth - 1].table.load(std::memory_order_relaxed) == nullptr) {
        --depth;
      }
      rec->depth.store(depth, std::memory_order_release);
      return;
    }
  }
  PS_CHECK(false) << "unbalanced unpin of virtual key " << vkey;
}

}  // namespace pkrusafe

#endif  // SRC_MULTIDOMAIN_VPKEY_H_
