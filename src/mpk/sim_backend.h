// Deterministic software MPK model.
//
// Enforcement is cooperative: code that should be subject to checking (the IR
// interpreter, the untrusted jsvm engine) routes loads/stores through
// CheckAccess. This gives bit-exact, thread-aware PKRU semantics with no
// hardware requirement, which the tests and the profiling pipeline build on.
// The PKRU is the per-thread software register (CurrentThreadPkru); tags,
// latching and key allocation are MpkBackend's.
#ifndef SRC_MPK_SIM_BACKEND_H_
#define SRC_MPK_SIM_BACKEND_H_

#include <atomic>

#include "src/mpk/backend.h"

namespace pkrusafe {

class SimMpkBackend : public MpkBackend {
 public:
  std::string_view name() const override { return "sim"; }
  bool enforces_natively() const override { return false; }

  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override {
    return page_keys_.Tag(addr, length, key);
  }

  PkruValue ReadPkru() const override { return CurrentThreadPkru(); }
  void WritePkru(PkruValue value) override { SetCurrentThreadPkru(value); }

  // Latched pages pass without consulting the PKRU (the page has been
  // downgraded to the shared key).
  Status CheckAccess(uintptr_t addr, AccessKind kind) override;

  // Number of violations observed (before resolution), for tests and stats.
  uint64_t fault_count() const { return fault_count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> fault_count_{0};
};

}  // namespace pkrusafe

#endif  // SRC_MPK_SIM_BACKEND_H_
