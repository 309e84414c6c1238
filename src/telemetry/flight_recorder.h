// Flight recorder: postmortem crash forensics for compartment violations.
//
// When the process is about to die — an enforcement-mode MPK violation, an
// unserviceable SIGSEGV, or an allocator-canary SIGABRT — the flight recorder
// writes a single JSON report to a pre-opened file descriptor describing the
// last known state of the sandbox: the faulting address and access kind, the
// thread's PKRU, the page-key interval map around the address, the
// provenance (AllocId) of the faulting pointer, the tail of every thread's
// trace ring, and a snapshot of every counter/gauge.
//
// The fatal path is strictly async-signal-safe:
//   * the output fd is opened at Configure() time, from a normal context;
//   * metric handles are pre-resolved (RefreshMetricHandles) so crash-time
//     reads are relaxed atomic loads through cached pointers;
//   * report text is formatted into a static arena with hand-rolled
//     bounded itoa/hex helpers — no malloc, no stdio, no locks;
//   * data owned by upper layers (page-key map, provenance) is reached
//     through C-style resolver callbacks the runtime registers; each
//     callback must itself be async-signal-safe (lock-free reads only);
//   * the whole path runs under ScopedAsyncSignalContext, so any
//     PKRUSAFE_AS_UNSAFE_POINT reached transitively aborts loudly in tests
//     instead of deadlocking silently in production.
//
// Layering: this file lives in telemetry (below mpk/runtime), so it knows
// nothing about MpkBackend or the allocator. The runtime wires those in
// via the resolver setters; src/mpk/fault_signal.cc calls WriteFatalReport
// directly from its die paths.
#ifndef SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/support/async_signal.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace telemetry {

// Everything the fatal path knows about why the process is dying. Plain
// scalars only — this struct crosses the signal boundary.
struct FatalFaultInfo {
  // "mpk-violation", "segv" or "abort". Must point at a string literal.
  const char* reason = "unknown";
  int signo = 0;
  bool has_fault_address = false;
  uint64_t fault_address = 0;
  int access_kind = 0;  // 0 read, 1 write (meaningful for mpk-violation)
  bool has_pkey = false;
  uint32_t pkey = 0;  // key tagging the faulting page
  bool has_pkru = false;
  uint32_t pkru = 0;  // thread PKRU at fault time
};

// A tagged page range as reported by the range resolver.
struct CrashRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint32_t key = 0;
};

// Provenance of the faulting pointer as reported by the provenance resolver.
struct CrashProvenance {
  bool found = false;  // the address lies in a tracked object
  uint64_t base = 0;
  uint64_t size = 0;
  uint32_t function_id = 0;
  uint32_t block_id = 0;
  uint32_t site_id = 0;
};

// Resolver callbacks. Implementations MUST be async-signal-safe: lock-free
// reads only, no allocation.
using RangeResolverFn = size_t (*)(void* ctx, uint64_t addr, CrashRange* out, size_t max);
using ProvenanceResolverFn = void (*)(void* ctx, uint64_t addr, CrashProvenance* out);
using PkruReadFn = uint32_t (*)(void* ctx);

class FlightRecorder {
 public:
  // The process-wide recorder the signal paths consult.
  static FlightRecorder& Global();

  // Opens `path` for the eventual report (O_CREAT|O_TRUNC) and installs the
  // SIGABRT hook so canary/PS_CHECK aborts also produce a report. Call from
  // a normal context before enforcement starts.
  Status Configure(const std::string& path);

  // True once Configure succeeded (the signal paths check this first).
  PKRUSAFE_AS_SAFE bool configured() const {
    return fd_.load(std::memory_order_acquire) >= 0;
  }

  // Closes the fd, restores the SIGABRT disposition and clears resolvers.
  void Shutdown();

  // Registers the page-key-map window resolver (runtime/backends own the
  // map). Pass nullptr to clear. `ctx` must outlive the registration.
  void SetRangeResolver(RangeResolverFn fn, void* ctx);

  // Registers the faulting-pointer provenance resolver. Pass nullptr to
  // clear.
  void SetProvenanceResolver(ProvenanceResolverFn fn, void* ctx);

  // Registers a reader for the calling thread's PKRU (used on the SIGABRT
  // path, which has no MpkFault to quote). Pass nullptr to clear.
  void SetPkruReader(PkruReadFn fn, void* ctx);

  // Names the enforcement backend in the report ("sim", "mprotect",
  // "hardware"). Must point at a string literal or otherwise-immortal text.
  void SetBackendName(const char* name);

  // Clears any resolver whose registered ctx equals `ctx`. Destructors of
  // resolver owners (the runtime) call this so a dying owner never leaves a
  // dangling callback, without clobbering a newer owner's registration.
  void ClearResolversFor(void* ctx);

  // Re-resolves the counter/gauge handle table from the global registry.
  // Takes the registry lock — call from a normal context (Configure calls it
  // once; call again after registering new metrics you want in reports).
  void RefreshMetricHandles();

  // The fatal path. Formats the postmortem report into the static arena and
  // writes it to the configured fd. Returns bytes written; 0 when not
  // configured or when a report was already written (reentrancy and
  // double-fault guard). Async-signal-safe.
  PKRUSAFE_AS_SAFE size_t WriteFatalReport(const FatalFaultInfo& info);

  // Test hook: forgets that a report was written so the next fatal writes
  // again.
  void ResetForTesting();

 private:
  FlightRecorder() = default;

  std::atomic<int> fd_{-1};
  std::atomic<bool> report_written_{false};

  std::atomic<RangeResolverFn> range_fn_{nullptr};
  std::atomic<void*> range_ctx_{nullptr};
  std::atomic<ProvenanceResolverFn> provenance_fn_{nullptr};
  std::atomic<void*> provenance_ctx_{nullptr};
  std::atomic<PkruReadFn> pkru_fn_{nullptr};
  std::atomic<void*> pkru_ctx_{nullptr};
  std::atomic<const char*> backend_name_{nullptr};
};

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_FLIGHT_RECORDER_H_
