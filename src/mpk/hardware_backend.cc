#include "src/mpk/hardware_backend.h"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "src/memmap/page.h"
#include "src/support/string_util.h"

#ifndef SYS_pkey_alloc
#define SYS_pkey_alloc 330
#endif
#ifndef SYS_pkey_free
#define SYS_pkey_free 331
#endif
#ifndef SYS_pkey_mprotect
#define SYS_pkey_mprotect 329
#endif

namespace pkrusafe {

namespace {

long PkeyAlloc() { return syscall(SYS_pkey_alloc, 0UL, 0UL); }
long PkeyFree(int pkey) { return syscall(SYS_pkey_free, pkey); }
long PkeyMprotect(uintptr_t addr, size_t len, int prot, int pkey) {
  return syscall(SYS_pkey_mprotect, reinterpret_cast<void*>(addr), len, prot, pkey);
}

#if defined(__x86_64__)
uint32_t RdPkru() {
  uint32_t eax = 0;
  uint32_t edx = 0;
  uint32_t ecx = 0;
  __asm__ volatile(".byte 0x0f,0x01,0xee" : "=a"(eax), "=d"(edx) : "c"(ecx));
  return eax;
}

void WrPkru(uint32_t value) {
  const uint32_t eax = value;
  const uint32_t ecx = 0;
  const uint32_t edx = 0;
  // The trailing `nopl 0xe1(%rax)` is the sanctioned-gate marker the ERIM-
  // style gadget scanner looks for (src/analysis/gadget_scan.h): a wrpkru
  // immediately followed by this signature is this gate; any other wrpkru
  // byte sequence in .text is a reportable gadget.
  //
  // Each emitted copy also registers its own address in the .pkru_gate_sites
  // ELF section, giving the link-time gate-integrity check
  // (src/analysis/gate_integrity.h) an authoritative inventory to cross-check
  // the byte scan against: every registered site must carry the marker, and
  // every marker-verified wrpkru must be registered. Each entry is 4 bytes
  // holding the gate's offset from the entry itself, so the read-only section
  // needs no load-time relocation in a PIE (no DT_TEXTREL).
  __asm__ volatile(
      ".pushsection .pkru_gate_sites,\"a\",@progbits\n\t"
      ".balign 4\n\t"
      ".long 1f - .\n\t"
      ".popsection\n"
      "1:\n\t"
      ".byte 0x0f,0x01,0xef\n\t"
      ".byte 0x0f,0x1f,0x40,0xe1"
      :
      : "a"(eax), "c"(ecx), "d"(edx));
}
#else
uint32_t RdPkru() { return 0; }
void WrPkru(uint32_t) {}
#endif

}  // namespace

bool HardwareMpkBackend::IsSupported() {
#if defined(__x86_64__)
  static const bool supported = [] {
    const long key = PkeyAlloc();
    if (key < 0) {
      return false;
    }
    PkeyFree(static_cast<int>(key));
    return true;
  }();
  return supported;
#else
  return false;
#endif
}

Result<PkeyId> HardwareMpkBackend::AllocateKey() {
  const long key = PkeyAlloc();
  if (key < 0) {
    return UnavailableError("pkey_alloc failed (no MPK support or keys exhausted)");
  }
  return static_cast<PkeyId>(key);
}

Status HardwareMpkBackend::FreeKey(PkeyId key) {
  if (key == kDefaultPkey) {
    return InvalidArgumentError("FreeKey of the default key");
  }
  if (PkeyFree(key) != 0) {
    return InternalError(StrFormat("pkey_free(%u) failed", key));
  }
  return Status::Ok();
}

Status HardwareMpkBackend::TagRange(uintptr_t addr, size_t length, PkeyId key) {
  if (PkeyMprotect(addr, length, PROT_READ | PROT_WRITE, key) != 0) {
    return InternalError(StrFormat("pkey_mprotect(0x%zx, %zu, key=%u) failed", addr, length, key));
  }
  return page_keys_.Tag(addr, length, key);
}

PkruValue HardwareMpkBackend::ReadPkru() const { return PkruValue(RdPkru()); }

void HardwareMpkBackend::WritePkru(PkruValue value) { WrPkru(value.raw()); }

void HardwareMpkBackend::OpenPage(uintptr_t page) {
  (void)PkeyMprotect(page, kPageSize, PROT_READ | PROT_WRITE, kDefaultPkey);
}

void HardwareMpkBackend::RestorePage(uintptr_t page, PkeyId key) {
  (void)PkeyMprotect(page, kPageSize, PROT_READ | PROT_WRITE, key);
}

}  // namespace pkrusafe
