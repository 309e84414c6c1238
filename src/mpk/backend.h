// The pluggable MPK enforcement backend.
//
// PKRU-Safe's mechanism needs four capabilities from the platform:
//   1. allocate a protection key,
//   2. tag page ranges with a key,
//   3. read/write the per-thread PKRU register, and
//   4. deliver a fault when code accesses a page whose key the current PKRU
//      denies — and allow the profiler to observe, record, and resume.
//
// Three implementations exist (see DESIGN.md "Substitutions"):
//   * SimMpkBackend       — deterministic software model; accesses are checked
//                           explicitly through CheckAccess (used by the IR
//                           interpreter and the untrusted jsvm engine).
//   * MprotectMpkBackend  — real OS enforcement: PKRU writes become mprotect
//                           calls, violations raise genuine SIGSEGV.
//   * HardwareMpkBackend  — real Intel MPK, when the CPU supports PKU.
//
// What the three share is written once here: the page-key map, the
// fault-handler slot, the latched-page set and the software key allocator.
// The two native backends also share the signal engine's delegate
// (NativeMpkBackend, fault_signal.h).
//
// The PKRU register model. The hardware backend's PKRU is the real
// per-thread register (RDPKRU/WRPKRU) and nothing else keeps a copy. The sim
// and mprotect backends share one software register per thread
// (CurrentThreadPkru in pkru.h), so two such backends on one thread see each
// other's writes. It is not yet one register per backend instance because
// code outside the backends, such as perfbench's browse workload, resets it
// with SetCurrentThreadPkru. Code outside the backends reads the PKRU through
// ReadPkru.
#ifndef SRC_MPK_BACKEND_H_
#define SRC_MPK_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/mpk/latched_page_set.h"
#include "src/mpk/page_key_map.h"
#include "src/mpk/pkey.h"
#include "src/mpk/pkru.h"
#include "src/support/status.h"

namespace pkrusafe {

// Description of a protection-key violation.
struct MpkFault {
  uintptr_t address = 0;
  AccessKind kind = AccessKind::kRead;
  PkeyId key = kDefaultPkey;   // the key tagging the faulting page
  PkruValue pkru;              // the thread PKRU at fault time
};

// What the fault handler wants the backend to do after it has recorded the
// fault (§4.3.2: the profiler single-steps the faulting access and then
// restores protection; an enforcing build simply denies).
enum class FaultResolution : uint8_t {
  kDeny,          // propagate the violation (terminate / report an error)
  kRetryAllowed,  // permit exactly this access, then restore protections
  // Permit the access and leave the page(s) the handler latched (via
  // NoteLatchedRange) downgraded to the shared key for the rest of the run:
  // first-fault site latching — the profile stays site-exact but becomes
  // count-approximate for the latched pages.
  kRetryAndLatch,
};

// Invoked on every protection-key violation the backend detects.
using FaultHandlerFn = std::function<FaultResolution(const MpkFault&)>;

// A tagged page range, as reported by TaggedRangesNear for crash forensics.
struct TaggedRangeInfo {
  uintptr_t begin = 0;
  uintptr_t end = 0;
  PkeyId key = kDefaultPkey;
};

class MpkBackend {
 public:
  virtual ~MpkBackend();

  virtual std::string_view name() const = 0;

  // Whether violations are trapped by the OS/hardware on ordinary
  // loads/stores (true) or only through the CheckAccess API (false).
  virtual bool enforces_natively() const = 0;

  // Allocates a fresh protection key. Key 0 is never returned. The default
  // models pkey_alloc with a bump counter plus a free list of released keys;
  // the hardware backend calls the real pkey_alloc.
  virtual Result<PkeyId> AllocateKey();

  // Returns `key` to the allocator so a later AllocateKey can hand it out
  // again (pkey_free analogue). The caller must have retagged every range
  // still carrying the key: like the kernel, the backend does not sweep page
  // tables on free, so a stale tag would silently alias the key's next owner.
  // Freeing key 0 or a never-allocated key is an error.
  virtual Status FreeKey(PkeyId key);

  // Tags pages [addr, addr+length) with `key` (pkey_mprotect analogue).
  virtual Status TagRange(uintptr_t addr, size_t length, PkeyId key) = 0;

  // The key tagging `addr` (kDefaultPkey when untagged). Lock-free.
  PKRUSAFE_AS_SAFE PkeyId KeyFor(uintptr_t addr) const { return page_keys_.KeyFor(addr); }

  // Async-signal-safe: copies up to `max` tagged ranges around `addr` into
  // `out` (address order) and returns how many were written. The crash
  // reporter calls this from inside SIGSEGV to show the page-key interval
  // map near the faulting address; it neither allocates nor locks.
  PKRUSAFE_AS_SAFE size_t TaggedRangesNear(uintptr_t addr, TaggedRangeInfo* out,
                                           size_t max) const;

  // Reads / writes the calling thread's PKRU.
  virtual PkruValue ReadPkru() const = 0;
  virtual void WritePkru(PkruValue value) = 0;

  // Validates an access against the current thread PKRU and the page-key
  // tags. Native backends return Ok unconditionally (the MMU checks); the sim
  // backend consults its model and routes violations through OnFault.
  // Returns PermissionDenied when the access is (still) denied.
  virtual Status CheckAccess(uintptr_t addr, AccessKind kind) {
    (void)addr;
    (void)kind;
    return Status::Ok();
  }

  // Installs the handler consulted on violations. Pass nullptr to reset to
  // the default (deny).
  void SetFaultHandler(FaultHandlerFn handler);

  // Asks the installed handler how to resolve `fault`; kDeny when none is
  // installed. Safe from SIGSEGV as long as the handler is: it is reached
  // through one atomic pointer load, never copied.
  FaultResolution OnFault(const MpkFault& fault) const;

  // --- First-fault latching (profiling mode) ---

  // Marks the page-aligned range [begin, end) as latched: permanently opened
  // to the faulting domain for the remainder of the run. Called by the
  // profiling fault handler from signal context: the insert is lock-free and
  // a tagged page is opened at once (OpenPage). When the set is full the
  // remaining pages simply keep faulting.
  PKRUSAFE_AS_SAFE void NoteLatchedRange(uintptr_t begin, uintptr_t end);

  // Reverses NoteLatchedRange for [begin, end): the pages leave the latched
  // set and get their key's protection back (RestorePage), so they trap on
  // touch again. Called from USER context only (Runtime::ApplyDemotions),
  // never a signal handler, though it tolerates racing signal-context
  // inserts.
  virtual void UnlatchRange(uintptr_t begin, uintptr_t end);

  // Whether the page containing `addr` has been latched.
  bool IsLatched(uintptr_t addr) const { return latched_.Contains(addr); }
  size_t latched_page_count() const { return latched_.size(); }

  // Performs any one-time setup native enforcement needs (the signal-based
  // backends register their SIGSEGV/SIGTRAP handlers here). No-op for the
  // software-checked backend.
  virtual Status PrepareNativeEnforcement() { return Status::Ok(); }

 protected:
  // Page hooks for latching and the native single-step window. OpenPage gives
  // the tagged `page` full access for every thread; RestorePage gives it back
  // the protection its `key` gets under the PKRU in force. Both may run in
  // signal context. The sim backend needs neither: its latched set is the
  // whole model.
  virtual void OpenPage(uintptr_t page) { (void)page; }
  virtual void RestorePage(uintptr_t page, PkeyId key) {
    (void)page;
    (void)key;
  }

  // The model of the page tables' key field, kept by every backend so faults
  // can be attributed without parsing /proc/self/smaps.
  PageKeyMap page_keys_;
  LatchedPageSet latched_;

 private:
  // Key allocation for the default AllocateKey/FreeKey.
  std::mutex key_mutex_;
  uint16_t next_key_ = 1;
  std::vector<PkeyId> free_keys_;

  // Replaced handlers are retired (not freed) so a racing fault can finish
  // its call; bounded by the number of SetFaultHandler calls and freed with
  // the backend.
  std::mutex handler_mutex_;
  std::atomic<FaultHandlerFn*> handler_{nullptr};
  std::vector<std::unique_ptr<FaultHandlerFn>> retired_handlers_;
};

}  // namespace pkrusafe

#endif  // SRC_MPK_BACKEND_H_
