#include "src/mpk/sim_backend.h"

#include "src/support/string_util.h"

namespace pkrusafe {

Status SimMpkBackend::CheckAccess(uintptr_t addr, AccessKind kind) {
  const PkeyId key = page_keys_.KeyFor(addr);
  const PkruValue pkru = CurrentThreadPkru();
  if (pkru.Allows(key, kind)) {
    return Status::Ok();
  }
  if (latched_.size() != 0 && latched_.Contains(addr)) {
    // The page was latched open by an earlier profiling fault: the model of
    // "downgraded to the shared key" is that accesses no longer fault.
    return Status::Ok();
  }

  fault_count_.fetch_add(1, std::memory_order_relaxed);
  if (OnFault(MpkFault{addr, kind, key, pkru}) != FaultResolution::kDeny) {
    // Single-step semantics: exactly this access succeeds; the thread PKRU
    // is untouched, so the next denied access faults again (unless the
    // handler latched the page via NoteLatchedRange).
    return Status::Ok();
  }
  return PermissionDeniedError(StrFormat("MPK violation: %s of 0x%zx (pkey %u) denied by %s",
                                         AccessKindName(kind), addr, key,
                                         pkru.ToString().c_str()));
}

}  // namespace pkrusafe
