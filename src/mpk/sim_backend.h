// Deterministic software MPK model.
//
// Enforcement is cooperative: code that should be subject to checking (the IR
// interpreter, the untrusted jsvm engine) routes loads/stores through
// CheckAccess. This gives bit-exact, thread-aware PKRU semantics with no
// hardware requirement, which the tests and the profiling pipeline build on.
#ifndef SRC_MPK_SIM_BACKEND_H_
#define SRC_MPK_SIM_BACKEND_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/mpk/backend.h"
#include "src/mpk/latched_page_set.h"
#include "src/mpk/page_key_map.h"

namespace pkrusafe {

class SimMpkBackend final : public MpkBackend {
 public:
  SimMpkBackend() = default;
  // Retires the installed fault handler, so it is freed with the rest.
  ~SimMpkBackend() override { SetFaultHandler(nullptr); }

  std::string_view name() const override { return "sim"; }
  bool enforces_natively() const override { return false; }

  Result<PkeyId> AllocateKey() override;
  Status FreeKey(PkeyId key) override;
  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override;
  Status UntagRange(uintptr_t addr) override;
  PkeyId KeyFor(uintptr_t addr) const override;
  size_t TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out, size_t max) const override;

  PkruValue ReadPkru() const override { return CurrentThreadPkru(); }
  void WritePkru(PkruValue value) override { SetCurrentThreadPkru(value); }

  Status CheckAccess(uintptr_t addr, AccessKind kind) override;

  void SetFaultHandler(FaultHandlerFn handler) override;

  // First-fault latching: accesses to latched pages pass CheckAccess without
  // consulting the PKRU (the page has been downgraded to the shared key).
  void NoteLatchedRange(uintptr_t begin, uintptr_t end) override;
  void UnlatchRange(uintptr_t begin, uintptr_t end) override;
  bool IsLatched(uintptr_t addr) const override { return latched_.Contains(addr); }
  size_t latched_page_count() const override { return latched_.size(); }

  // Number of violations observed (before resolution), for tests and stats.
  uint64_t fault_count() const { return fault_count_.load(std::memory_order_relaxed); }

 private:
  PageKeyMap page_keys_;
  // Key allocation: a bump counter plus a free list so released keys (see
  // FreeKey) can be handed out again — pkey_alloc/pkey_free semantics.
  std::mutex key_mutex_;
  uint16_t next_key_ = 1;
  std::vector<PkeyId> free_keys_;
  std::atomic<uint64_t> fault_count_{0};

  // Atomic-pointer handler (same scheme as the native backends): CheckAccess
  // is the sim's per-access hot path, so the handler is reached through one
  // acquire load instead of a mutex + std::function copy.
  std::mutex handler_mutex_;
  std::atomic<FaultHandlerFn*> handler_{nullptr};
  std::vector<std::unique_ptr<FaultHandlerFn>> retired_handlers_;

  LatchedPageSet latched_;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_SIM_BACKEND_H_
