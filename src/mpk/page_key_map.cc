#include "src/mpk/page_key_map.h"

#include <algorithm>

#include "src/memmap/page.h"
#include "src/support/string_util.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

// ---------------------------------------------------------------------------
// Epoch-based snapshot reclamation.
//
// Readers (KeyFor/IsTagged/... — possibly from SIGSEGV context) claim a slot
// in a fixed global pool and stamp the current epoch into it for the duration
// of the read. A writer retires the superseded snapshot at the epoch it
// advances past and may free any retired snapshot whose retire epoch precedes
// every stamped reader epoch: a reader stamps BEFORE loading the snapshot
// pointer, so (seq_cst throughout) a reader that observed the old pointer has
// a stamp ≤ that snapshot's retire epoch visible to the writer's scan.
//
// The protocol is reentrant for nested signal readers on the same thread:
// depth is incremented before the stamp check, so a handler interrupting a
// read either inherits the outer stamp or installs one the resuming outer
// read can keep (an older overwrite is merely conservative); the stamp is
// cleared only when the outermost read exits.
//
// Everything here is a fixed-size static — no allocation on any reader path,
// including a thread's first read from inside a signal handler.
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kIdleEpoch = ~0ull;

// Monotonic grace-period clock, advanced by writers on every publish.
std::atomic<uint64_t> g_epoch{1};

struct alignas(64) ReaderSlot {
  std::atomic<uint64_t> tid{0};              // 0 = unclaimed
  std::atomic<uint64_t> epoch{kIdleEpoch};   // kIdleEpoch = no read in flight
  std::atomic<uint32_t> depth{0};            // owner-thread only (signal nesting)
};

constexpr size_t kMaxReaderSlots = 128;
ReaderSlot g_reader_slots[kMaxReaderSlots];

// Readers that could not claim a slot park here; any nonzero value stalls
// reclamation entirely (never correctness).
std::atomic<uint64_t> g_overflow_readers{0};

thread_local ReaderSlot* t_reader_slot = nullptr;

PKRUSAFE_AS_SAFE ReaderSlot* ClaimReaderSlot() {
  if (t_reader_slot != nullptr) {
    return t_reader_slot;
  }
  const uint64_t tid = static_cast<uint64_t>(telemetry::CurrentTid());
  const size_t start = (tid * 0x9E3779B97F4A7C15ull) >> 57 & (kMaxReaderSlots - 1);
  for (size_t i = 0; i < kMaxReaderSlots; ++i) {
    ReaderSlot* slot = &g_reader_slots[(start + i) & (kMaxReaderSlots - 1)];
    uint64_t expected = 0;
    if (slot->tid.compare_exchange_strong(expected, tid, std::memory_order_acq_rel)) {
      t_reader_slot = slot;
      return slot;
    }
    if (expected == tid) {
      // The kernel recycled a dead thread's tid; its slot (idle by scoping of
      // EpochReadGuard) is ours to adopt.
      t_reader_slot = slot;
      return slot;
    }
  }
  return nullptr;
}

// RAII reader registration. Async-signal-safe and reentrant.
class EpochReadGuard {
 public:
  PKRUSAFE_AS_SAFE EpochReadGuard() : slot_(ClaimReaderSlot()) {
    if (slot_ == nullptr) {
      g_overflow_readers.fetch_add(1, std::memory_order_seq_cst);
      return;
    }
    slot_->depth.fetch_add(1, std::memory_order_relaxed);
    if (slot_->epoch.load(std::memory_order_relaxed) == kIdleEpoch) {
      slot_->epoch.store(g_epoch.load(std::memory_order_seq_cst), std::memory_order_seq_cst);
    }
  }
  PKRUSAFE_AS_SAFE ~EpochReadGuard() {
    if (slot_ == nullptr) {
      g_overflow_readers.fetch_sub(1, std::memory_order_seq_cst);
      return;
    }
    if (slot_->depth.fetch_sub(1, std::memory_order_relaxed) == 1) {
      slot_->epoch.store(kIdleEpoch, std::memory_order_seq_cst);
    }
  }
  EpochReadGuard(const EpochReadGuard&) = delete;
  EpochReadGuard& operator=(const EpochReadGuard&) = delete;

 private:
  ReaderSlot* slot_;
};

uint64_t MinActiveReaderEpoch() {
  uint64_t min_epoch = kIdleEpoch;
  for (const ReaderSlot& slot : g_reader_slots) {
    const uint64_t epoch = slot.epoch.load(std::memory_order_seq_cst);
    min_epoch = epoch < min_epoch ? epoch : min_epoch;
  }
  return min_epoch;
}

// First range whose end is past `addr` (the containing range if tagged,
// otherwise the nearest range above). A template so it can take the private
// snapshot entry type.
template <typename Range>
PKRUSAFE_AS_SAFE const Range* LowerBoundRange(const std::vector<Range>& ranges, uintptr_t addr) {
  auto it = std::upper_bound(ranges.begin(), ranges.end(), addr,
                             [](uintptr_t value, const Range& range) { return value < range.end; });
  return it == ranges.end() ? nullptr : &*it;
}

}  // namespace

PageKeyMap::~PageKeyMap() {
  delete snapshot_.load(std::memory_order_relaxed);
  for (const RetiredSnapshot& retired : retired_) {
    delete retired.snapshot;
  }
}

void PageKeyMap::PublishLocked(std::unique_ptr<Snapshot> fresh) {
  const Snapshot* old = snapshot_.exchange(fresh.release(), std::memory_order_seq_cst);
  if (old != nullptr) {
    const uint64_t retire_epoch = g_epoch.fetch_add(1, std::memory_order_seq_cst);
    retired_.push_back(RetiredSnapshot{old, retire_epoch});
  }
  if (g_overflow_readers.load(std::memory_order_seq_cst) != 0) {
    return;  // a slotless reader is in flight; retry reclamation next publish
  }
  const uint64_t min_active = MinActiveReaderEpoch();
  while (!retired_.empty() && retired_.front().retire_epoch < min_active) {
    delete retired_.front().snapshot;
    retired_.pop_front();
  }
}

Status PageKeyMap::Tag(uintptr_t addr, size_t length, PkeyId key,
                       std::optional<PkeyId>* replaced) {
  if (replaced != nullptr) {
    replaced->reset();
  }
  if (!IsPageAligned(addr) || !IsPageAligned(length) || length == 0 || addr + length < addr) {
    return InvalidArgumentError("Tag range must be non-empty, page-aligned and not wrap");
  }
  if (key >= kNumPkeys) {
    return InvalidArgumentError(StrFormat("pkey %d out of range", key));
  }
  std::lock_guard lock(mutex_);
  const Snapshot* current = snapshot_.load(std::memory_order_relaxed);
  const size_t count = current == nullptr ? 0 : current->ranges.size();
  const Entry* next = current == nullptr ? nullptr : LowerBoundRange(current->ranges, addr);
  // An exact re-tag (pkey_mprotect on the same mapping with another key)
  // leaves every bound as it is: swap the key in place, publish nothing.
  if (next != nullptr && next->begin == addr && next->end == addr + length) {
    const PkeyId previous = next->key.exchange(key, std::memory_order_acq_rel);
    if (replaced != nullptr) {
      *replaced = previous;
    }
    return Status::Ok();
  }
  // `next` is the first range ending past addr; no later one can overlap.
  if (next != nullptr && next->begin < addr + length) {
    return AlreadyExistsError("range overlaps an existing tagged range");
  }
  const size_t at = next == nullptr ? count : static_cast<size_t>(next - current->ranges.data());
  auto fresh = std::make_unique<Snapshot>(count + 1);
  for (size_t i = 0; i < count; ++i) {
    fresh->ranges[i < at ? i : i + 1].Set(current->ranges[i].Load());
  }
  fresh->ranges[at].Set(TaggedRange{addr, addr + length, key});
  PublishLocked(std::move(fresh));
  return Status::Ok();
}

Status PageKeyMap::Untag(uintptr_t addr) {
  std::lock_guard lock(mutex_);
  const Snapshot* current = snapshot_.load(std::memory_order_relaxed);
  const Entry* range = current == nullptr ? nullptr : LowerBoundRange(current->ranges, addr);
  if (range == nullptr || range->begin != addr) {
    return NotFoundError("no tagged range starts at the given address");
  }
  const size_t at = static_cast<size_t>(range - current->ranges.data());
  auto fresh = std::make_unique<Snapshot>(current->ranges.size() - 1);
  for (size_t i = 0; i < fresh->ranges.size(); ++i) {
    fresh->ranges[i].Set(current->ranges[i < at ? i : i + 1].Load());
  }
  PublishLocked(std::move(fresh));
  return Status::Ok();
}

PkeyId PageKeyMap::KeyFor(uintptr_t addr) const {
  EpochReadGuard guard;
  const Snapshot* snap = LoadSnapshot();
  if (snap == nullptr) {
    return kDefaultPkey;
  }
  const Entry* range = LowerBoundRange(snap->ranges, addr);
  return range != nullptr && range->begin <= addr ? range->key.load(std::memory_order_acquire)
                                                  : kDefaultPkey;
}

bool PageKeyMap::IsTagged(uintptr_t addr) const {
  EpochReadGuard guard;
  const Snapshot* snap = LoadSnapshot();
  if (snap == nullptr) {
    return false;
  }
  const Entry* range = LowerBoundRange(snap->ranges, addr);
  return range != nullptr && range->begin <= addr;
}

std::optional<PageKeyMap::TaggedRange> PageKeyMap::RangeStartingAt(uintptr_t addr) const {
  EpochReadGuard guard;
  const Snapshot* snap = LoadSnapshot();
  if (snap == nullptr) {
    return std::nullopt;
  }
  const Entry* range = LowerBoundRange(snap->ranges, addr);
  if (range == nullptr || range->begin != addr) {
    return std::nullopt;
  }
  return range->Load();
}

size_t PageKeyMap::RangesAround(uintptr_t addr, TaggedRange* out, size_t max) const {
  EpochReadGuard guard;
  const Snapshot* snap = LoadSnapshot();
  if (snap == nullptr || max == 0 || snap->ranges.empty()) {
    return 0;
  }
  const std::vector<Entry>& ranges = snap->ranges;
  const Entry* pivot = LowerBoundRange(ranges, addr);
  size_t index = pivot == nullptr ? ranges.size() : static_cast<size_t>(pivot - ranges.data());
  // Center the window on the pivot: up to half the budget below it, the rest
  // above (shifted when the address sits near either end of the map).
  size_t begin = index > max / 2 ? index - max / 2 : 0;
  if (ranges.size() - begin < max && ranges.size() > max) {
    begin = ranges.size() - max;
  }
  size_t written = 0;
  for (size_t i = begin; i < ranges.size() && written < max; ++i) {
    out[written++] = ranges[i].Load();
  }
  return written;
}

std::vector<PageKeyMap::TaggedRange> PageKeyMap::RangesForKey(PkeyId key) const {
  EpochReadGuard guard;
  std::vector<TaggedRange> out;
  const Snapshot* snap = LoadSnapshot();
  if (snap == nullptr) {
    return out;
  }
  for (const Entry& entry : snap->ranges) {
    const TaggedRange range = entry.Load();
    if (range.key == key) {
      out.push_back(range);
    }
  }
  return out;
}

size_t PageKeyMap::range_count() const {
  EpochReadGuard guard;
  const Snapshot* snap = LoadSnapshot();
  return snap == nullptr ? 0 : snap->ranges.size();
}

size_t PageKeyMap::retired_snapshot_count() const {
  std::lock_guard lock(mutex_);
  return retired_.size();
}

}  // namespace pkrusafe
