// Real Intel MPK backend, used when the CPU and kernel support PKU.
//
// Keys come from pkey_alloc(2), tagging from pkey_mprotect(2), and PKRU
// reads/writes are the RDPKRU/WRPKRU instructions. Single-step resume
// temporarily re-tags the faulting page with the default key (pkey 0) rather
// than editing the PKRU slot of the signal frame's XSAVE area, which keeps the
// signal path identical to the mprotect backend. Page tags are process-wide
// (only the PKRU is per-thread), so that single-step window is visible to
// every thread, as with mprotect.
#ifndef SRC_MPK_HARDWARE_BACKEND_H_
#define SRC_MPK_HARDWARE_BACKEND_H_

#include "src/mpk/fault_signal.h"

namespace pkrusafe {

class HardwareMpkBackend final : public NativeMpkBackend {
 public:
  // True when pkey_alloc succeeds on this machine (CPU + kernel support).
  static bool IsSupported();

  std::string_view name() const override { return "hardware"; }

  Result<PkeyId> AllocateKey() override;
  Status FreeKey(PkeyId key) override;
  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override;

  // RDPKRU / WRPKRU: the real per-thread register, with no software copy.
  PkruValue ReadPkru() const override;
  void WritePkru(PkruValue value) override;

 private:
  // Latching and the step window re-tag the page to the default key
  // (pkey 0, always accessible) and back to its recorded key.
  void OpenPage(uintptr_t page) override;
  void RestorePage(uintptr_t page, PkeyId key) override;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_HARDWARE_BACKEND_H_
