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

HardwareMpkBackend::~HardwareMpkBackend() {
  UninstallSignalHandlers();
  SetFaultHandler(nullptr);  // retired handlers are freed with the backend
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

Status HardwareMpkBackend::UntagRange(uintptr_t addr) {
  // Return the pages to the default key before forgetting the range, so a
  // fault in between is still classified as ours.
  if (const auto range = page_keys_.RangeStartingAt(addr)) {
    (void)PkeyMprotect(range->begin, range->end - range->begin, PROT_READ | PROT_WRITE,
                       kDefaultPkey);
  }
  return page_keys_.Untag(addr);
}

PkeyId HardwareMpkBackend::KeyFor(uintptr_t addr) const { return page_keys_.KeyFor(addr); }

size_t HardwareMpkBackend::TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out,
                                            size_t max) const {
  constexpr size_t kMaxWindow = 64;
  PageKeyMap::TaggedRange buffer[kMaxWindow];
  const size_t n = page_keys_.RangesAround(addr, buffer, max < kMaxWindow ? max : kMaxWindow);
  for (size_t i = 0; i < n; ++i) {
    out[i] = TaggedRangeInfo{buffer[i].begin, buffer[i].end, buffer[i].key};
  }
  return n;
}

PkruValue HardwareMpkBackend::ReadPkru() const { return PkruValue(RdPkru()); }

void HardwareMpkBackend::WritePkru(PkruValue value) {
  // Keep the software mirror in sync so code that consults CurrentThreadPkru
  // (stats, assertions) agrees with the hardware.
  SetCurrentThreadPkru(value);
  WrPkru(value.raw());
}

Status HardwareMpkBackend::CheckAccess(uintptr_t addr, AccessKind kind) {
  (void)addr;
  (void)kind;
  return Status::Ok();  // the MMU enforces
}

void HardwareMpkBackend::SetFaultHandler(FaultHandlerFn handler) {
  std::lock_guard lock(handler_mutex_);
  FaultHandlerFn* fresh = handler ? new FaultHandlerFn(std::move(handler)) : nullptr;
  FaultHandlerFn* old = handler_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    retired_handlers_.emplace_back(old);
  }
}

void HardwareMpkBackend::NoteLatchedRange(uintptr_t begin, uintptr_t end) {
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Insert(page)) {
      break;  // set saturated: the pages keep single-stepping instead
    }
    // Downgrade to the always-accessible default key now; Reprotect will
    // skip the page from here on. pkey_mprotect is a plain syscall, safe
    // from the SIGSEGV handler.
    (void)PkeyMprotect(page, kPageSize, PROT_READ | PROT_WRITE, kDefaultPkey);
  }
}

void HardwareMpkBackend::UnlatchRange(uintptr_t begin, uintptr_t end) {
  // User-context only (ApplyDemotions). Re-tag each page with its recorded
  // key so the hardware enforces the PKRU on it again.
  for (uintptr_t page = PageDown(begin); page < end; page += kPageSize) {
    if (!latched_.Erase(page)) {
      continue;  // never latched: still carries its key
    }
    if (page_keys_.IsTagged(page)) {
      (void)PkeyMprotect(page, kPageSize, PROT_READ | PROT_WRITE, page_keys_.KeyFor(page));
    }
  }
}

Status HardwareMpkBackend::InstallSignalHandlers() { return FaultSignalEngine::Install(this); }

void HardwareMpkBackend::UninstallSignalHandlers() {
  if (FaultSignalEngine::installed()) {
    FaultSignalEngine::Uninstall();
  }
}

std::optional<MpkFault> HardwareMpkBackend::Classify(uintptr_t addr, bool is_write) {
  if (!page_keys_.IsTagged(addr)) {
    return std::nullopt;
  }
  const PkeyId key = page_keys_.KeyFor(addr);
  const PkruValue pkru = ReadPkru();
  const AccessKind kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  const bool allowed = kind == AccessKind::kRead ? pkru.allows_read(key) : pkru.allows_write(key);
  if (allowed) {
    return std::nullopt;
  }
  return MpkFault{addr, kind, key, pkru};
}

FaultResolution HardwareMpkBackend::OnFault(const MpkFault& fault) {
  FaultHandlerFn* handler = handler_.load(std::memory_order_acquire);
  return handler != nullptr && *handler ? (*handler)(fault) : FaultResolution::kDeny;
}

void HardwareMpkBackend::AllowOnce(const MpkFault& fault) {
  const uintptr_t page = PageDown(fault.address);
  for (int i = 0; i < 2; ++i) {
    const uintptr_t p = page + static_cast<uintptr_t>(i) * kPageSize;
    if (page_keys_.IsTagged(p)) {
      (void)PkeyMprotect(p, kPageSize, PROT_READ | PROT_WRITE, kDefaultPkey);
    }
  }
}

void HardwareMpkBackend::Reprotect(const MpkFault& fault) {
  const uintptr_t page = PageDown(fault.address);
  for (int i = 0; i < 2; ++i) {
    const uintptr_t p = page + static_cast<uintptr_t>(i) * kPageSize;
    if (page_keys_.IsTagged(p) && !latched_.Contains(p)) {
      const PkeyId key = page_keys_.KeyFor(p);
      (void)PkeyMprotect(p, kPageSize, PROT_READ | PROT_WRITE, key);
    }
  }
}

}  // namespace pkrusafe
