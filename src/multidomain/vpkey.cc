#include "src/multidomain/vpkey.h"

#include <chrono>

#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
// The glibc wrapper and uapi header may predate the expedited commands; the
// raw values are ABI.
#ifndef MEMBARRIER_CMD_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_PRIVATE_EXPEDITED (1 << 3)
#endif
#ifndef MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED
#define MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED (1 << 4)
#endif
#endif  // defined(__linux__)

namespace pkrusafe {

namespace {

telemetry::Counter* HitsCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.vpkey.hits");
  return counter;
}

telemetry::Counter* MissesCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.vpkey.misses");
  return counter;
}

telemetry::Counter* EvictionsCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.vpkey.evictions");
  return counter;
}

telemetry::Counter* RetagBytesCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.vpkey.retag_bytes");
  return counter;
}

telemetry::Counter* RetagNsCounter() {
  static auto* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("multidomain.vpkey.retag_ns");
  return counter;
}

// --- the asymmetric barrier ---
//
// The pin fast path must not pay a fence: membarrier(PRIVATE_EXPEDITED)
// lets the (rare, already page-retagging) eviction path execute a memory
// barrier on every running thread of the process instead. When registration
// fails (old kernel, seccomp) both sides fall back to seq_cst fences
// (g_membarrier_ready stays false).

void InitHeavyBarrier() {
#if defined(__linux__)
  static const bool registered = [] {
    return syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0) == 0;
  }();
  if (registered) {
    vpkey_internal::g_membarrier_ready.store(true, std::memory_order_relaxed);
  }
#endif
}

void HeavyBarrier() {
#if defined(__linux__)
  if (vpkey_internal::g_membarrier_ready.load(std::memory_order_relaxed)) {
    PS_CHECK(syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) == 0)
        << "membarrier(PRIVATE_EXPEDITED) failed after successful registration";
    return;
  }
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

}  // namespace

namespace pin_registry {

PinRecord* ClaimRecordSlow() {
  for (PinRecord* r = g_records.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    bool expected = false;
    if (r->claimed.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      return r;
    }
  }
  auto* rec = new PinRecord();
  rec->claimed.store(true, std::memory_order_relaxed);
  PinRecord* head = g_records.load(std::memory_order_relaxed);
  do {
    rec->next = head;
  } while (!g_records.compare_exchange_weak(head, rec, std::memory_order_release,
                                            std::memory_order_relaxed));
  return rec;
}

}  // namespace pin_registry

Result<std::unique_ptr<VirtualPkeyTable>> VirtualPkeyTable::Create(MpkBackend* backend,
                                                                   const VpkeyConfig& config) {
  if (backend == nullptr) {
    return InvalidArgumentError("null backend");
  }
  auto table = std::unique_ptr<VirtualPkeyTable>(new VirtualPkeyTable(backend, config));

  PS_ASSIGN_OR_RETURN(table->evicted_key_, backend->AllocateKey());

  // Claim the slot keys eagerly: the deny-mask security argument needs the
  // slot universe fixed before the first mask is composed (a slot key minted
  // after a thread entered a compartment would be absent from that thread's
  // installed mask).
  const size_t want = config.max_hw_slots == 0 ? static_cast<size_t>(kNumPkeys)
                                               : config.max_hw_slots;
  while (table->slots_.size() < want) {
    auto key = backend->AllocateKey();
    if (!key.ok()) {
      if (!table->slots_.empty()) {
        break;  // took every key the backend had left
      }
      return ResourceExhaustedError(
          "virtual pkeys need at least two hardware keys (evicted + one slot): " +
          key.status().ToString());
    }
    table->slots_.push_back(Slot{*key, kNoHolder});
  }

  PkruValue mask = PkruValue::AllowAll().WithAccessDisabled(table->evicted_key_);
  for (const PkeyId key : config.always_deny) {
    mask = mask.WithAccessDisabled(key);
  }
  for (const Slot& slot : table->slots_) {
    mask = mask.WithAccessDisabled(slot.key);
  }
  table->base_mask_ = mask;

  // Decide the barrier flavor up front, not during the first eviction: once
  // registration succeeds, fast pins may drop their fallback fence.
  InitHeavyBarrier();
  return table;
}

VirtualPkeyTable::~VirtualPkeyTable() {
  for (const Slot& slot : slots_) {
    (void)backend_->FreeKey(slot.key);
  }
  (void)backend_->FreeKey(evicted_key_);
}

VirtualPkeyTable::VKeyState* VirtualPkeyTable::FindAlive(VirtualKeyId vkey) {
  VKeyState* state = states_.at(vkey);
  return (state != nullptr && state->alive) ? state : nullptr;
}

const VirtualPkeyTable::VKeyState* VirtualPkeyTable::FindAlive(VirtualKeyId vkey) const {
  const VKeyState* state = states_.at(vkey);
  return (state != nullptr && state->alive) ? state : nullptr;
}

Result<VirtualKeyId> VirtualPkeyTable::AllocateVirtualKey() {
  VirtualKeyId id;
  VKeyState* state;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    state = states_.at(id);  // reset by ReleaseVirtualKey
  } else {
    state = states_.Claim();
    if (state == nullptr) {
      return ResourceExhaustedError(
          StrFormat("virtual key table full (%zu keys)", states_.capacity()));
    }
    id = static_cast<VirtualKeyId>(states_.size());
    states_.Publish();
  }
  state->alive = true;
  ++live_keys_;
  return id;
}

Status VirtualPkeyTable::ReleaseVirtualKey(VirtualKeyId vkey) {
  VKeyState* state = FindAlive(vkey);
  if (state == nullptr) {
    return InvalidArgumentError(StrFormat("release of unknown virtual key %u", vkey));
  }
  if (ActiveAnywhere(vkey)) {
    return FailedPreconditionError(StrFormat("release of pinned virtual key %u", vkey));
  }
  if (resident(*state)) {
    // Lock the dying compartment's pages before the slot is reused: whatever
    // the owner does with the memory next, it must not be readable under a
    // mask composed for the slot's next holder.
    const Status unbound = MakeNonResident(vkey, *state);
    if (unbound.code() == StatusCode::kUnavailable) {
      return FailedPreconditionError(StrFormat("release of pinned virtual key %u", vkey));
    }
    PS_RETURN_IF_ERROR(unbound);
  }
  retired_uses_ += state->uses.load(std::memory_order_relaxed);
  // Atomics are pinned in place, so the id is reset for reuse field by field
  // (the slot is already kNoSlot).
  state->mask.store(0, std::memory_order_relaxed);
  state->last_use.store(0, std::memory_order_relaxed);
  state->uses.store(0, std::memory_order_relaxed);
  state->alive = false;
  state->ranges.clear();
  free_ids_.push_back(vkey);
  --live_keys_;
  return Status::Ok();
}

Status VirtualPkeyTable::TagRange(VirtualKeyId vkey, uintptr_t addr, size_t length) {
  VKeyState* state = FindAlive(vkey);
  if (state == nullptr) {
    return InvalidArgumentError(StrFormat("TagRange for unknown virtual key %u", vkey));
  }
  const uint8_t slot = state->slot.load(std::memory_order_relaxed);
  const PkeyId key = slot != kNoSlot ? slots_[slot].key : evicted_key_;
  PS_RETURN_IF_ERROR(backend_->TagRange(addr, length, key));
  for (Range& range : state->ranges) {
    if (range.addr == addr) {
      range.length = length;  // exact re-tag of a known range
      return Status::Ok();
    }
  }
  state->ranges.push_back(Range{addr, length});
  return Status::Ok();
}

Status VirtualPkeyTable::RetagAll(VKeyState& state, PkeyId key) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t bytes = 0;
  for (const Range& range : state.ranges) {
    PS_RETURN_IF_ERROR(backend_->TagRange(range.addr, range.length, key));
    bytes += range.length;
  }
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  retag_bytes_ += bytes;
  retag_ns_ += ns;
  RetagBytesCounter()->Increment(bytes);
  RetagNsCounter()->Increment(ns);
  return Status::Ok();
}

bool VirtualPkeyTable::ActiveAnywhere(VirtualKeyId vkey) const {
  bool active = false;
  pin_registry::ForEachRecord([&](const pin_registry::PinRecord& r) {
    if (active) {
      return;
    }
    const uint32_t depth = std::min(r.depth.load(std::memory_order_acquire), kMaxPinDepth);
    for (uint32_t i = 0; i < depth; ++i) {
      if (r.entries[i].table.load(std::memory_order_relaxed) == this &&
          r.entries[i].vkey.load(std::memory_order_relaxed) == vkey) {
        active = true;
        return;
      }
    }
  });
  return active;
}

Status VirtualPkeyTable::MakeNonResident(VirtualKeyId vkey, VKeyState& state) {
  const uint8_t slot_index = state.slot.load(std::memory_order_relaxed);
  PS_CHECK(slot_index != kNoSlot);
  // Unbind first: from here until the re-bind (or the restore below), every
  // TryPinFast for this key fails into the locked path, which we serialize
  // with. Then the barrier + rescan decides who won any in-flight race.
  state.slot.store(kNoSlot, std::memory_order_release);
  HeavyBarrier();
  if (ActiveAnywhere(vkey)) {
    state.slot.store(slot_index, std::memory_order_release);
    return UnavailableError(StrFormat("virtual key %u pinned during eviction", vkey));
  }
  const Status retagged = RetagAll(state, evicted_key_);
  if (!retagged.ok()) {
    // Pages may be partially re-tagged to the evicted key — over-denied,
    // which is the safe direction — but keep the slot binding consistent.
    state.slot.store(slot_index, std::memory_order_release);
    return retagged;
  }
  slots_[slot_index].holder = kNoHolder;
  --resident_count_;
  return Status::Ok();
}

size_t VirtualPkeyTable::PickVictimSlot(const std::vector<bool>& excluded) const {
  size_t best = slots_.size();
  uint64_t best_last_use = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (excluded[i] || slots_[i].holder == kNoHolder) {
      continue;
    }
    const VKeyState* holder = states_.at(slots_[i].holder);
    if (holder == nullptr || ActiveAnywhere(slots_[i].holder)) {
      continue;  // pinned residents back a live PKRU mask somewhere
    }
    const uint64_t last_use = holder->last_use.load(std::memory_order_relaxed);
    if (best == slots_.size() || last_use < best_last_use) {
      best = i;
      best_last_use = last_use;
    }
  }
  return best;
}

Status VirtualPkeyTable::FaultIn(VirtualKeyId vkey, VKeyState& state) {
  ++misses_;
  MissesCounter()->Increment();

  size_t slot_index = slots_.size();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].holder == kNoHolder) {
      slot_index = i;
      break;
    }
  }
  if (slot_index == slots_.size()) {
    // Evict. The victim pick is advisory (the pin scan it does is racy); the
    // authoritative pinned-check is MakeNonResident's barrier + rescan, so a
    // candidate that turns out pinned is excluded and the pick retried.
    std::vector<bool> excluded(slots_.size(), false);
    for (;;) {
      slot_index = PickVictimSlot(excluded);
      if (slot_index == slots_.size()) {
        return ResourceExhaustedError(
            StrFormat("all %zu hardware key slots are pinned (compartment nesting deeper than "
                      "the slot count)",
                      slots_.size()));
      }
      const VirtualKeyId victim_id = slots_[slot_index].holder;
      VKeyState* victim = states_.at(victim_id);
      PS_CHECK(victim != nullptr);
      const Status unbound = MakeNonResident(victim_id, *victim);
      if (unbound.ok()) {
        ++evictions_;
        EvictionsCounter()->Increment();
        break;
      }
      if (unbound.code() == StatusCode::kUnavailable) {
        excluded[slot_index] = true;
        continue;
      }
      return unbound;
    }
  }

  // Bind: publish the mask before the slot. A fast pinner acquire-loads the
  // slot, so observing residency implies it observes this mask (and, via the
  // same release edge... the re-tags happened-before too).
  state.mask.store(base_mask_.WithKeyAllowed(slots_[slot_index].key).raw(),
                   std::memory_order_relaxed);
  PS_RETURN_IF_ERROR(RetagAll(state, slots_[slot_index].key));
  slots_[slot_index].holder = vkey;
  state.slot.store(static_cast<uint8_t>(slot_index), std::memory_order_release);
  ++resident_count_;
  return Status::Ok();
}

Result<PkruValue> VirtualPkeyTable::PinResident(VirtualKeyId vkey) {
  VKeyState* state = FindAlive(vkey);
  if (state == nullptr) {
    return InvalidArgumentError(StrFormat("pin of unknown virtual key %u", vkey));
  }
  pin_registry::PinRecord* rec = pin_registry::CurrentRecord();
  const uint32_t depth = rec->depth.load(std::memory_order_relaxed);
  if (depth >= kMaxPinDepth) {
    return ResourceExhaustedError(
        StrFormat("thread pin stack full at depth %u", kMaxPinDepth));
  }
  if (!resident(*state)) {
    // FaultIn never victimizes this thread's own pins (they're in our
    // record) and vkey itself is not resident, so the pick cannot race us.
    PS_RETURN_IF_ERROR(FaultIn(vkey, *state));
  }
  rec->entries[depth].table.store(this, std::memory_order_relaxed);
  rec->entries[depth].vkey.store(vkey, std::memory_order_relaxed);
  rec->depth.store(depth + 1, std::memory_order_release);
  TouchClocks(*state);
  return PkruValue(state->mask.load(std::memory_order_relaxed));
}

Result<PkruValue> VirtualPkeyTable::PolicyFor(VirtualKeyId vkey) {
  PS_ASSIGN_OR_RETURN(const PkruValue mask, PinResident(vkey));
  Unpin(vkey);
  return mask;
}

PkeyId VirtualPkeyTable::CurrentHardwareKey(VirtualKeyId vkey) const {
  const VKeyState* state = FindAlive(vkey);
  PS_CHECK(state != nullptr) << "hardware key of unknown virtual key " << vkey;
  const uint8_t slot = state->slot.load(std::memory_order_acquire);
  return slot != kNoSlot ? slots_[slot].key : evicted_key_;
}

bool VirtualPkeyTable::IsResident(VirtualKeyId vkey) const {
  const VKeyState* state = FindAlive(vkey);
  PS_CHECK(state != nullptr) << "residency of unknown virtual key " << vkey;
  return resident(*state);
}

VpkeyStats VirtualPkeyTable::stats() const {
  VpkeyStats stats;
  uint64_t uses = retired_uses_;
  for (size_t i = 0; i < states_.size(); ++i) {
    const VKeyState* state = states_.at(i);
    if (state != nullptr && state->alive) {
      uses += state->uses.load(std::memory_order_relaxed);
    }
  }
  // Every successful pin bumps `uses`; the locked path counts the misses
  // exactly, so hits fall out by subtraction (floored: lossy `uses` updates
  // can transiently lag the miss count under contention).
  stats.hits = uses > misses_ ? uses - misses_ : 0;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.retag_bytes = retag_bytes_;
  stats.retag_ns = retag_ns_;
  stats.resident = resident_count_;
  stats.virtual_keys = live_keys_;
  stats.hw_slots = slots_.size();
  // The fast path can't touch telemetry without an RMW; reconcile the hits
  // counter here instead, monotonically.
  if (stats.hits > hits_flushed_) {
    HitsCounter()->Increment(stats.hits - hits_flushed_);
    hits_flushed_ = stats.hits;
  }
  return stats;
}

}  // namespace pkrusafe
