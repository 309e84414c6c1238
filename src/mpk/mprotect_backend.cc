#include "src/mpk/mprotect_backend.h"

#include <sys/mman.h>

#include <optional>

#include "src/memmap/page.h"
#include "src/support/logging.h"

namespace pkrusafe {

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
  if (::mprotect(reinterpret_cast<void*>(addr), length, ProtFor(EnforcedPkru(), key)) != 0) {
    // A failed exact re-tag leaves the range on its previous key: dropping
    // the range would report key 0 for pages that were tagged.
    (void)(replaced ? page_keys_.Tag(addr, length, *replaced) : page_keys_.Untag(addr));
    return InternalError("mprotect while tagging range failed");
  }
  return Status::Ok();
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
        OpenPage(page);
      }
    }
  }
}

void MprotectMpkBackend::WritePkru(PkruValue value) {
  SetCurrentThreadPkru(value);
  std::lock_guard lock(pkru_mutex_);
  const PkruValue previous = EnforcedPkru();
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

void MprotectMpkBackend::UnlatchRange(uintptr_t begin, uintptr_t end) {
  std::lock_guard lock(pkru_mutex_);
  NativeMpkBackend::UnlatchRange(begin, end);
}

void MprotectMpkBackend::OpenPage(uintptr_t page) {
  (void)::mprotect(reinterpret_cast<void*>(page), kPageSize, PROT_READ | PROT_WRITE);
}

void MprotectMpkBackend::RestorePage(uintptr_t page, PkeyId key) {
  (void)::mprotect(reinterpret_cast<void*>(page), kPageSize, ProtFor(EnforcedPkru(), key));
}

}  // namespace pkrusafe
