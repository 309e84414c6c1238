// Telemetry front door: the global enable toggle, the per-thread ring pool
// and the typed record helpers the instrumented hot paths call.
//
// Cost contract (verified by bench_callgate_micro): with telemetry disabled
// — the default — every Record* helper is a single relaxed atomic load plus
// a branch. Metrics *counters* are not behind the toggle; they replace
// counters the hot paths already paid for (the runtime's fault totals,
// the allocator's pool traffic), so they stay live and free-standing. Only the trace path (timestamps + ring
// writes + latency histograms) is gated.
//
// The record path is async-signal-safe end to end: relaxed atomics, a
// clock_gettime(CLOCK_MONOTONIC) timestamp, a TLS ring pointer and a seqlock
// ring write. Ring claiming uses a lock-free pool of statically-allocated
// rings, so even a thread whose *first* event fires inside the SIGSEGV
// handler records safely.
//
// Event payload layout (TraceEvent a/b/c words), decoded by the exporters:
//   kGateEnter / kGateExit   detail = TraceDirection
//                            a = compartment-stack depth, b = PKRU written
//   kFaultServiced / kFaultDenied
//                            detail = access kind (0 read, 1 write)
//                            a = faulting address, b = protection key
//   kAlloc                   detail = pool (bit 0: 0 M_T, 1 M_U)
//                                     | has-site flag (bit 1)
//                            a = size, b = fn_id<<32 | block_id, c = site_id
//   kRealloc                 a = new size
//   kFree                    a = address
//   kPkruWrite               a = raw PKRU value written
#ifndef SRC_TELEMETRY_TELEMETRY_H_
#define SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/telemetry/trace_ring.h"

namespace pkrusafe {
namespace telemetry {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// The disabled-by-default global toggle. Enabled() is the only cost an
// instrumented path pays when tracing is off.
inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled);

// Monotonic nanoseconds (async-signal-safe).
uint64_t NowNs();

// The calling thread's kernel tid, cached in TLS.
uint32_t CurrentTid();

// Records one event into the calling thread's ring, stamping tid and
// timestamp. No-op (one relaxed load + branch) while disabled.
void RecordEvent(TraceEventType type, uint8_t detail, uint64_t a = 0, uint64_t b = 0,
                 uint64_t c = 0);
// Same, with a caller-provided timestamp (avoids a second clock read when
// the caller already timed the operation).
void RecordEventAt(uint64_t timestamp_ns, TraceEventType type, uint8_t detail, uint64_t a = 0,
                   uint64_t b = 0, uint64_t c = 0);

// Drains every claimed ring into one timestamp-sorted vector. Safe while
// other threads keep recording (in-flight slots are skipped). Allocates —
// not callable from signal context (enforced by PKRUSAFE_AS_UNSAFE_POINT).
std::vector<TraceEvent> CollectTrace();

// Number of rings threads have claimed so far (capped at the pool size).
// Async-signal-safe.
size_t ClaimedRingCount();

// Async-signal-safe per-ring drain for the crash-forensics path: copies the
// most recent events of ring `ring_index` (in [0, ClaimedRingCount())) into
// the caller's buffer, oldest first, and returns how many were written.
// Returns 0 for out-of-range indexes.
size_t CollectRecentTrace(size_t ring_index, TraceEvent* out, size_t max);

// Ring-pool accounting, also mirrored as telemetry.* metrics in the global
// registry.
struct TraceStats {
  size_t rings_claimed = 0;       // threads that ever recorded an event
  uint64_t events_recorded = 0;   // sum over rings
  uint64_t events_overwritten = 0;  // lost to ring wraparound
  uint64_t events_dropped = 0;    // lost because the ring pool was exhausted
};
TraceStats GatherTraceStats();

// Disables tracing, clears every ring and the drop counter. Claimed rings
// stay bound to their threads. Test/tool helper — do not call while other
// threads are recording.
void ResetForTesting();

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_TELEMETRY_H_
