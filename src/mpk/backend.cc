#include "src/mpk/backend.h"

#include "src/memmap/page.h"

namespace pkrusafe {

MpkBackend::~MpkBackend() { delete handler_.load(std::memory_order_acquire); }

Result<PkeyId> MpkBackend::AllocateKey() {
  std::lock_guard lock(key_mutex_);
  if (!free_keys_.empty()) {
    const PkeyId key = free_keys_.back();
    free_keys_.pop_back();
    return key;
  }
  if (next_key_ >= kNumPkeys) {
    return ResourceExhaustedError("out of protection keys");
  }
  return static_cast<PkeyId>(next_key_++);
}

Status MpkBackend::FreeKey(PkeyId key) {
  std::lock_guard lock(key_mutex_);
  if (key == kDefaultPkey || key >= next_key_) {
    return InvalidArgumentError("FreeKey of key that was never allocated");
  }
  for (const PkeyId free_key : free_keys_) {
    if (free_key == key) {
      return InvalidArgumentError("double FreeKey");
    }
  }
  free_keys_.push_back(key);
  return Status::Ok();
}

size_t MpkBackend::TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out, size_t max) const {
  constexpr size_t kMaxWindow = 64;
  PageKeyMap::TaggedRange buffer[kMaxWindow];
  const size_t n = page_keys_.RangesAround(addr, buffer, max < kMaxWindow ? max : kMaxWindow);
  for (size_t i = 0; i < n; ++i) {
    out[i] = TaggedRangeInfo{buffer[i].begin, buffer[i].end, buffer[i].key};
  }
  return n;
}

void MpkBackend::SetFaultHandler(FaultHandlerFn handler) {
  std::lock_guard lock(handler_mutex_);
  FaultHandlerFn* fresh = handler ? new FaultHandlerFn(std::move(handler)) : nullptr;
  FaultHandlerFn* old = handler_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    // Retire rather than delete: a fault on another thread may still be
    // mid-call through the old pointer.
    retired_handlers_.emplace_back(old);
  }
}

FaultResolution MpkBackend::OnFault(const MpkFault& fault) const {
  FaultHandlerFn* handler = handler_.load(std::memory_order_acquire);
  return handler != nullptr && *handler ? (*handler)(fault) : FaultResolution::kDeny;
}

void MpkBackend::NoteLatchedRange(uintptr_t begin, uintptr_t end) {
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Insert(page)) {
      break;  // set saturated: the pages keep faulting instead
    }
    // Open the page now rather than at the end of the single-step: inside
    // the fault path this is redundant with AllowOnce, but online
    // re-partitioning (Runtime::ApplyPromotions) latches pages outside any
    // fault, and a promoted object must stop faulting immediately.
    if (page_keys_.IsTagged(page)) {
      OpenPage(page);
    }
  }
}

void MpkBackend::UnlatchRange(uintptr_t begin, uintptr_t end) {
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Erase(page)) {
      continue;  // never latched: its protection already matches its key
    }
    if (page_keys_.IsTagged(page)) {
      RestorePage(page, page_keys_.KeyFor(page));
    }
  }
}

}  // namespace pkrusafe
