// OS-enforced MPK emulation via mprotect.
//
// PKRU writes are translated into mprotect calls over the ranges tagged with
// each affected key, so a denied access is a *real* access violation: the MMU
// raises SIGSEGV with no cooperation from the offending code. This is the
// backend that exercises the paper's genuine enforcement and profiling paths
// (fault handler, single-step resume) on machines without MPK silicon.
//
// Divergence from hardware (documented in DESIGN.md): page protections are
// process-wide, so the effective PKRU is a process-wide value; per-thread
// PKRU reads return the software register the thread last wrote (shared
// with the sim backend, see backend.h). A consequence is the process-wide
// step window: while AllowOnce holds a faulting page open, accesses by
// *other* threads to that page slip through unrecorded — the profiling
// handler compensates at latch time (docs/faults.md).
//
// The page hooks run inside SIGSEGV/SIGTRAP and are async-signal-safe: the
// effective PKRU is a plain atomic and mprotect is a plain syscall.
#ifndef SRC_MPK_MPROTECT_BACKEND_H_
#define SRC_MPK_MPROTECT_BACKEND_H_

#include <atomic>
#include <mutex>

#include "src/mpk/fault_signal.h"

namespace pkrusafe {

class MprotectMpkBackend final : public NativeMpkBackend {
 public:
  std::string_view name() const override { return "mprotect"; }

  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override;

  PkruValue ReadPkru() const override { return CurrentThreadPkru(); }
  void WritePkru(PkruValue value) override;

  // Holds the PKRU sweep's lock, so a concurrent WritePkru cannot leave a
  // restored page with the protection of the PKRU it replaced.
  void UnlatchRange(uintptr_t begin, uintptr_t end) override;

 private:
  // Latched pages stay PROT_READ|PROT_WRITE across Reprotect and later
  // PKRU writes for the rest of the run.
  void OpenPage(uintptr_t page) override;
  void RestorePage(uintptr_t page, PkeyId key) override;
  PkruValue EnforcedPkru() const override {
    return PkruValue(effective_pkru_.load(std::memory_order_acquire));
  }

  // Effective protection for pages tagged `key` under PKRU `pkru`.
  static int ProtFor(PkruValue pkru, PkeyId key);

  // mprotects every range tagged with `key` per `pkru`, then re-opens any
  // latched pages the sweep closed.
  void ApplyKeyProtection(PkeyId key, PkruValue pkru);

  std::mutex pkru_mutex_;  // serializes WritePkru's read-modify-mprotect sweep
  std::atomic<uint32_t> effective_pkru_{0};  // process-wide value protections reflect
};

}  // namespace pkrusafe

#endif  // SRC_MPK_MPROTECT_BACKEND_H_
