#include "src/mpk/mprotect_backend.h"

#include <sys/mman.h>

#include <optional>

#include "src/memmap/page.h"
#include "src/support/logging.h"

namespace pkrusafe {

MprotectMpkBackend::~MprotectMpkBackend() {
  UninstallSignalHandlers();
  SetFaultHandler(nullptr);  // retired handlers are freed with the backend
}

Result<PkeyId> MprotectMpkBackend::AllocateKey() {
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

Status MprotectMpkBackend::FreeKey(PkeyId key) {
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

int MprotectMpkBackend::ProtFor(PkruValue pkru, PkeyId key) {
  if (pkru.access_disabled(key)) {
    return PROT_NONE;
  }
  if (pkru.write_disabled(key)) {
    return PROT_READ;
  }
  return PROT_READ | PROT_WRITE;
}

Status MprotectMpkBackend::TagRange(uintptr_t addr, size_t length, PkeyId key) {
  std::optional<PkeyId> replaced;
  PS_RETURN_IF_ERROR(page_keys_.Tag(addr, length, key, &replaced));
  if (::mprotect(reinterpret_cast<void*>(addr), length, ProtFor(EffectivePkru(), key)) != 0) {
    // A failed exact re-tag leaves the range on its previous key: dropping
    // the range would report key 0 for pages that were tagged.
    (void)(replaced ? page_keys_.Tag(addr, length, *replaced) : page_keys_.Untag(addr));
    return InternalError("mprotect while tagging range failed");
  }
  return Status::Ok();
}

Status MprotectMpkBackend::UntagRange(uintptr_t addr) { return page_keys_.Untag(addr); }

PkeyId MprotectMpkBackend::KeyFor(uintptr_t addr) const { return page_keys_.KeyFor(addr); }

size_t MprotectMpkBackend::TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out,
                                            size_t max) const {
  constexpr size_t kMaxWindow = 64;
  PageKeyMap::TaggedRange buffer[kMaxWindow];
  const size_t n = page_keys_.RangesAround(addr, buffer, max < kMaxWindow ? max : kMaxWindow);
  for (size_t i = 0; i < n; ++i) {
    out[i] = TaggedRangeInfo{buffer[i].begin, buffer[i].end, buffer[i].key};
  }
  return n;
}

void MprotectMpkBackend::ApplyKeyProtection(PkeyId key, PkruValue pkru) {
  const int prot = ProtFor(pkru, key);
  for (const auto& range : page_keys_.RangesForKey(key)) {
    if (::mprotect(reinterpret_cast<void*>(range.begin), range.end - range.begin, prot) != 0) {
      PS_LOG(Error) << "mprotect failed while applying pkru to key " << static_cast<int>(key);
      continue;
    }
    if (prot == (PROT_READ | PROT_WRITE) || latched_.size() == 0) {
      continue;
    }
    // The sweep just closed every page of the range; latched pages must stay
    // open for the rest of the profiling run.
    for (uintptr_t page = range.begin; page < range.end; page += kPageSize) {
      if (latched_.Contains(page)) {
        (void)::mprotect(reinterpret_cast<void*>(page), kPageSize, PROT_READ | PROT_WRITE);
      }
    }
  }
}

void MprotectMpkBackend::WritePkru(PkruValue value) {
  SetCurrentThreadPkru(value);
  std::lock_guard lock(pkru_mutex_);
  const PkruValue previous = EffectivePkru();
  effective_pkru_.store(value.raw(), std::memory_order_release);
  if (previous == value) {
    return;
  }
  for (int key = 1; key < kNumPkeys; ++key) {
    const auto id = static_cast<PkeyId>(key);
    if (ProtFor(previous, id) != ProtFor(value, id)) {
      ApplyKeyProtection(id, value);
    }
  }
}

Status MprotectMpkBackend::CheckAccess(uintptr_t addr, AccessKind kind) {
  // The MMU enforces; accesses that reach this backend in software are let
  // through so the hardware-equivalent path decides.
  (void)addr;
  (void)kind;
  return Status::Ok();
}

void MprotectMpkBackend::SetFaultHandler(FaultHandlerFn handler) {
  std::lock_guard lock(handler_mutex_);
  FaultHandlerFn* fresh = handler ? new FaultHandlerFn(std::move(handler)) : nullptr;
  FaultHandlerFn* old = handler_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    // Retire rather than delete: a fault on another thread may still be
    // mid-call through the old pointer.
    retired_handlers_.emplace_back(old);
  }
}

void MprotectMpkBackend::NoteLatchedRange(uintptr_t begin, uintptr_t end) {
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Insert(page)) {
      break;  // set saturated: the pages keep single-stepping instead
    }
    // Open the page now rather than waiting for the next Reprotect sweep:
    // inside the fault path this is redundant with AllowOnce, but online
    // re-partitioning (Runtime::ApplyPromotions) latches pages outside any
    // fault, and a promoted object must stop faulting immediately. Plain
    // syscall, safe from the SIGSEGV handler.
    if (page_keys_.IsTagged(page)) {
      (void)::mprotect(reinterpret_cast<void*>(page), kPageSize, PROT_READ | PROT_WRITE);
    }
  }
}

void MprotectMpkBackend::UnlatchRange(uintptr_t begin, uintptr_t end) {
  // User-context only (ApplyDemotions). Restore each page's protection from
  // its key and the current process-wide PKRU so the page traps again.
  std::lock_guard lock(pkru_mutex_);
  const PkruValue pkru = EffectivePkru();
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Erase(page)) {
      continue;  // never latched: its protection already matches its key
    }
    if (page_keys_.IsTagged(page)) {
      const PkeyId key = page_keys_.KeyFor(page);
      (void)::mprotect(reinterpret_cast<void*>(page), kPageSize, ProtFor(pkru, key));
    }
  }
}

Status MprotectMpkBackend::InstallSignalHandlers() { return FaultSignalEngine::Install(this); }

void MprotectMpkBackend::UninstallSignalHandlers() {
  if (FaultSignalEngine::installed()) {
    FaultSignalEngine::Uninstall();
  }
}

std::optional<MpkFault> MprotectMpkBackend::Classify(uintptr_t addr, bool is_write) {
  if (!page_keys_.IsTagged(addr)) {
    return std::nullopt;  // not ours: chain to the application's handler
  }
  const PkeyId key = page_keys_.KeyFor(addr);
  const PkruValue pkru = EffectivePkru();
  const AccessKind kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  const bool allowed = kind == AccessKind::kRead ? pkru.allows_read(key) : pkru.allows_write(key);
  if (allowed) {
    // Tagged but permitted: a genuine SEGV (e.g. unrelated bug); chain it.
    return std::nullopt;
  }
  return MpkFault{addr, kind, key, pkru};
}

FaultResolution MprotectMpkBackend::OnFault(const MpkFault& fault) {
  FaultHandlerFn* handler = handler_.load(std::memory_order_acquire);
  return handler != nullptr && *handler ? (*handler)(fault) : FaultResolution::kDeny;
}

void MprotectMpkBackend::AllowOnce(const MpkFault& fault) {
  // One instruction may touch at most two pages (an unaligned access that
  // straddles a boundary); open whichever of the two are tagged. Untagged
  // neighbours are left alone — they may be unrelated mappings.
  const uintptr_t page = PageDown(fault.address);
  for (int i = 0; i < 2; ++i) {
    const uintptr_t p = page + static_cast<uintptr_t>(i) * kPageSize;
    if (page_keys_.IsTagged(p)) {
      (void)::mprotect(reinterpret_cast<void*>(p), kPageSize, PROT_READ | PROT_WRITE);
    }
  }
}

void MprotectMpkBackend::Reprotect(const MpkFault& fault) {
  const PkruValue pkru = EffectivePkru();
  const uintptr_t page = PageDown(fault.address);
  // Restore each page according to its own key (they may differ at a pool
  // boundary). Latched pages stay open for the rest of the run.
  for (int i = 0; i < 2; ++i) {
    const uintptr_t p = page + static_cast<uintptr_t>(i) * kPageSize;
    if (page_keys_.IsTagged(p) && !latched_.Contains(p)) {
      const PkeyId key = page_keys_.KeyFor(p);
      (void)::mprotect(reinterpret_cast<void*>(p), kPageSize, ProtFor(pkru, key));
    }
  }
}

}  // namespace pkrusafe
