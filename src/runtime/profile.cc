#include "src/runtime/profile.h"

#include <algorithm>

#include "src/telemetry/telemetry.h"

namespace pkrusafe {

Status Profile::AddChecked(AllocId id, uint64_t count) {
  uint64_t& existing = counts_[id];
  if (count > UINT64_MAX - existing) {
    return OutOfRangeError("profile count overflows uint64 for site " + id.ToString());
  }
  existing += count;
  return Status::Ok();
}

std::vector<AllocId> Profile::Sites() const {
  std::vector<AllocId> sites;
  sites.reserve(counts_.size());
  for (const auto& [id, count] : counts_) {
    sites.push_back(id);
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

uint64_t Profile::TotalCount() const {
  uint64_t total = 0;
  for (const auto& [id, count] : counts_) {
    total = count > UINT64_MAX - total ? UINT64_MAX : total + count;
  }
  return total;
}

void Profile::Merge(const Profile& other) {
  for (const auto& [id, count] : other.counts_) {
    uint64_t& existing = counts_[id];
    existing = count > UINT64_MAX - existing ? UINT64_MAX : existing + count;
  }
}

// ---------------------------------------------------------------------------
// ProfileRecorder: static pool of per-(recorder, thread) hash tables.
//
// A thread's first recorded fault claims one table; every later fault from
// that thread hits the same table, so there is no cross-thread contention and
// nothing on the path a signal handler cannot do. Slots move empty → claiming
// → ready; a nested same-thread signal that interrupts a half-claimed slot
// simply probes past it (the duplicate entries merge in TakeProfile).
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kMaxTables = 64;
constexpr size_t kSlotsPerTable = 256;  // distinct sites per thread per recorder

constexpr uint32_t kSlotEmpty = 0;
constexpr uint32_t kSlotClaiming = 1;
constexpr uint32_t kSlotReady = 2;

struct Slot {
  std::atomic<uint32_t> state{kSlotEmpty};
  uint32_t function_id = 0;
  uint32_t block_id = 0;
  uint32_t site_id = 0;
  std::atomic<uint64_t> count{0};
};

struct Table {
  // (recorder serial << 32) | tid; 0 = free.
  std::atomic<uint64_t> owner{0};
  Slot slots[kSlotsPerTable];
};

Table g_tables[kMaxTables];

std::atomic<uint32_t> g_recorder_serial{1};

// Last table this thread claimed; revalidated against the owner word on
// every use so a Reset() on one recorder cannot leak a stale table into
// another recorder's profile.
struct TableCache {
  uint64_t owner = 0;
  uint32_t table_index = 0;
};
thread_local TableCache t_table_cache;

PKRUSAFE_AS_SAFE Table* ClaimTable(uint32_t serial) {
  const uint64_t owner =
      (static_cast<uint64_t>(serial) << 32) | static_cast<uint64_t>(telemetry::CurrentTid());
  if (t_table_cache.owner == owner) {
    Table* cached = &g_tables[t_table_cache.table_index];
    if (cached->owner.load(std::memory_order_acquire) == owner) {
      return cached;
    }
  }
  for (size_t i = 0; i < kMaxTables; ++i) {
    // Re-adopt a table this thread already claimed for this recorder (cache
    // was evicted by work on another recorder).
    if (g_tables[i].owner.load(std::memory_order_acquire) == owner) {
      t_table_cache = TableCache{owner, static_cast<uint32_t>(i)};
      return &g_tables[i];
    }
  }
  for (size_t i = 0; i < kMaxTables; ++i) {
    uint64_t expected = 0;
    if (g_tables[i].owner.compare_exchange_strong(expected, owner, std::memory_order_acq_rel)) {
      t_table_cache = TableCache{owner, static_cast<uint32_t>(i)};
      return &g_tables[i];
    }
  }
  return nullptr;  // pool exhausted
}

void ReleaseTablesFor(uint32_t serial) {
  for (Table& table : g_tables) {
    const uint64_t owner = table.owner.load(std::memory_order_acquire);
    if ((owner >> 32) != serial) {
      continue;
    }
    for (Slot& slot : table.slots) {
      slot.state.store(kSlotEmpty, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
    }
    table.owner.store(0, std::memory_order_release);
  }
}

}  // namespace

ProfileRecorder::ProfileRecorder()
    : serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed)) {}

ProfileRecorder::~ProfileRecorder() { ReleaseTablesFor(serial_); }

void ProfileRecorder::RecordFault(AllocId id) {
  total_faults_.fetch_add(1, std::memory_order_relaxed);
  Table* table = ClaimTable(serial_);
  if (table == nullptr) {
    dropped_faults_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t start = static_cast<size_t>(id.Hash()) & (kSlotsPerTable - 1);
  for (size_t i = 0; i < kSlotsPerTable; ++i) {
    Slot& slot = table->slots[(start + i) & (kSlotsPerTable - 1)];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == kSlotEmpty) {
      if (slot.state.compare_exchange_strong(state, kSlotClaiming, std::memory_order_acq_rel)) {
        slot.function_id = id.function_id;
        slot.block_id = id.block_id;
        slot.site_id = id.site_id;
        slot.count.store(1, std::memory_order_relaxed);
        slot.state.store(kSlotReady, std::memory_order_release);
        return;
      }
      // Raced with a nested signal on this thread; fall through and treat
      // the slot by its new state.
    }
    if (state == kSlotClaiming) {
      continue;  // half-written by an interrupted outer frame: probe past it
    }
    if (slot.function_id == id.function_id && slot.block_id == id.block_id &&
        slot.site_id == id.site_id) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  dropped_faults_.fetch_add(1, std::memory_order_relaxed);
}

Profile ProfileRecorder::TakeProfile() const {
  Profile profile;
  for (const Table& table : g_tables) {
    if ((table.owner.load(std::memory_order_acquire) >> 32) != serial_) {
      continue;
    }
    for (const Slot& slot : table.slots) {
      if (slot.state.load(std::memory_order_acquire) != kSlotReady) {
        continue;
      }
      profile.Add(AllocId{slot.function_id, slot.block_id, slot.site_id},
                  slot.count.load(std::memory_order_relaxed));
    }
  }
  return profile;
}

void ProfileRecorder::Reset() {
  ReleaseTablesFor(serial_);
  total_faults_.store(0, std::memory_order_relaxed);
  dropped_faults_.store(0, std::memory_order_relaxed);
}

}  // namespace pkrusafe
