#include "src/runtime/provenance.h"

#include <sched.h>

#include "src/telemetry/telemetry.h"

namespace pkrusafe {

Status ProvenanceTracker::OnAlloc(const void* ptr, size_t size, AllocId id) {
  if (ptr == nullptr || size == 0) {
    return InvalidArgumentError("null or empty allocation");
  }
  const auto base = reinterpret_cast<uintptr_t>(ptr);
  std::lock_guard lock(mutex_);
  return objects_.Insert(base, base + size, Record{base, size, id});
}

Status ProvenanceTracker::OnRealloc(const void* old_ptr, const void* new_ptr, size_t new_size) {
  const auto old_base = reinterpret_cast<uintptr_t>(old_ptr);
  const auto new_base = reinterpret_cast<uintptr_t>(new_ptr);
  std::lock_guard lock(mutex_);
  auto old_record = objects_.Erase(old_base);
  if (!old_record.ok()) {
    return old_record.status();
  }
  const AllocId id = old_record->id;
  return objects_.Insert(new_base, new_base + new_size, Record{new_base, new_size, id});
}

Status ProvenanceTracker::OnFree(const void* ptr) {
  std::lock_guard lock(mutex_);
  auto erased = objects_.Erase(reinterpret_cast<uintptr_t>(ptr));
  if (!erased.ok()) {
    return erased.status();
  }
  return Status::Ok();
}

std::optional<ProvenanceTracker::Record> ProvenanceTracker::Lookup(uintptr_t addr) const {
  std::lock_guard lock(mutex_);
  auto interval = objects_.Find(addr);
  if (!interval.has_value()) {
    return std::nullopt;
  }
  return interval->value;
}

bool ProvenanceTracker::TryLockForSignal() const {
  // try_lock, NowNs (clock_gettime) and sched_yield are plain atomics and
  // syscalls: safe in a signal handler, where blocking in lock() could
  // deadlock on a mutex the interrupted thread holds. Each round spins
  // first, so a holder running on another CPU is caught between its
  // back-to-back holds; the yield between rounds lets a preempted holder run.
  uint64_t deadline = 0;
  while (true) {
    for (int spin = 0; spin < kSignalLockSpins; ++spin) {
      if (mutex_.try_lock()) {
        return true;
      }
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
    const uint64_t now = telemetry::NowNs();
    if (deadline == 0) {
      deadline = now + kSignalLockBudgetNs;
    } else if (now >= deadline) {
      return false;
    }
    sched_yield();
  }
}

bool ProvenanceTracker::LookupForSignal(uintptr_t addr, bool* found, Record* record) const {
  *found = false;
  if (!TryLockForSignal()) {
    return false;
  }
  auto interval = objects_.Find(addr);
  if (interval.has_value()) {
    *found = true;
    *record = interval->value;
  }
  mutex_.unlock();
  return true;
}

int ProvenanceTracker::RecordsInRangeForSignal(uintptr_t lo, uintptr_t hi, Record* out,
                                               int max) const {
  if (!TryLockForSignal()) {
    return -1;
  }
  int written = 0;
  objects_.ForEachIn(lo, hi, [&](const IntervalMap<Record>::Interval& interval) {
    if (written < max) {
      out[written++] = interval.value;
    }
  });
  mutex_.unlock();
  return written;
}

std::vector<ProvenanceTracker::Record> ProvenanceTracker::RecordsForSite(AllocId id) const {
  std::vector<Record> records;
  std::lock_guard lock(mutex_);
  objects_.ForEach([&](const IntervalMap<Record>::Interval& interval) {
    if (interval.value.id == id) {
      records.push_back(interval.value);
    }
  });
  return records;
}

size_t ProvenanceTracker::live_count() const {
  std::lock_guard lock(mutex_);
  return objects_.size();
}

void ProvenanceTracker::Clear() {
  std::lock_guard lock(mutex_);
  objects_.clear();
}

}  // namespace pkrusafe
