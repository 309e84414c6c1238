#include "src/mpk/fault_signal.h"

#include <signal.h>
#include <string.h>
#include <ucontext.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/memmap/page.h"
#include "src/support/async_signal.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

#if defined(__x86_64__)
// Bit 1 of the page-fault error code distinguishes writes from reads.
constexpr uint64_t kPageFaultWriteBit = 1u << 1;
// EFLAGS trap flag: single-step after the next instruction.
constexpr uint64_t kEflagsTrapFlag = 1u << 8;
#endif

std::atomic<FaultSignalDelegate*> g_delegate{nullptr};
std::atomic<uint64_t> g_serviced_faults{0};

// Concurrency accounting: how many threads are mid-single-step right now,
// the high-water mark, and how many faults were appended to an already
// active step (one instruction spanning two protected pages).
std::atomic<uint32_t> g_active_steps{0};
std::atomic<uint32_t> g_max_concurrent_steps{0};
std::atomic<uint64_t> g_reentrant_faults{0};
// Pending faults that did not fit a step slot's fixed array; their pages
// stay open until the trap (a bounded step-window leak, surfaced as a
// metric rather than a deadlock).
std::atomic<uint64_t> g_step_overflows{0};

// Metric handles resolved at Install time (registry lookups take a mutex and
// are not async-signal-safe; the handlers below only touch the cached
// pointers, which are plain relaxed atomics).
struct SignalMetrics {
  telemetry::Counter* serviced = nullptr;
  telemetry::Counter* denied = nullptr;
  telemetry::Counter* reentrant = nullptr;
  telemetry::Histogram* service_ns = nullptr;
};
SignalMetrics g_metrics;

void ResolveSignalMetrics() {
  if (g_metrics.serviced != nullptr) {
    return;
  }
  auto& registry = telemetry::MetricsRegistry::Global();
  g_metrics.serviced = registry.GetOrCreateCounter("mpk.faults.serviced");
  g_metrics.denied = registry.GetOrCreateCounter("mpk.faults.denied");
  g_metrics.reentrant = registry.GetOrCreateCounter("mpk.faults.reentrant");
  // Full single-step service time: SIGSEGV entry to SIGTRAP re-protect.
  g_metrics.service_ns = registry.GetOrCreateHistogram(
      "mpk.fault_service_ns", telemetry::Histogram::ExponentialBounds(256, 2.0, 20));
  registry.SetCallbackGauge("mpk.step.concurrent_max", &g_max_concurrent_steps, [] {
    return static_cast<int64_t>(g_max_concurrent_steps.load(std::memory_order_relaxed));
  });
  registry.SetCallbackGauge("mpk.step.overflows", &g_step_overflows, [] {
    return static_cast<int64_t>(g_step_overflows.load(std::memory_order_relaxed));
  });
}

struct sigaction g_prev_segv;
struct sigaction g_prev_trap;
bool g_installed = false;

// --- Per-thread pending step (v2) -------------------------------------------
//
// SIGTRAP after a single-step is delivered to the thread that set TF, so the
// slot needs no cross-thread synchronization: plain fields in a trivially-
// constructible TLS struct (constant-initialized, so first touch from a
// signal handler performs no allocation). One instruction can fault on more
// than one protected page (unaligned straddle, movsq with both operands
// tagged): each such fault is appended while the step is active instead of
// re-entering a global slot the same thread already holds (the v1 deadlock).
constexpr int kMaxStepFaults = 4;

struct PendingFault {
  MpkFault fault;
  bool latch;
};

struct PendingStep {
  int count;  // 0 = no step in flight on this thread
  PendingFault faults[kMaxStepFaults];
  uint64_t segv_entry_ns;  // nonzero when tracing timed the SIGSEGV
};

thread_local PendingStep t_pending;

// --- Per-thread service-time stat slots --------------------------------------
//
// A fixed pool claimed lock-free on a thread's first serviced fault (which
// may happen inside the SIGSEGV handler, so claiming must be AS-safe — same
// idiom as the telemetry trace-ring pool). Slots are never released; the
// snapshot API walks the claimed prefix.
struct alignas(64) ThreadStatSlot {
  std::atomic<uint64_t> tid{0};  // 0 = free
  std::atomic<uint64_t> serviced{0};
  std::atomic<uint64_t> service_ns{0};
};

constexpr size_t kMaxThreadStatSlots = 256;
ThreadStatSlot g_thread_stats[kMaxThreadStatSlots];
// Overflow bucket when more than kMaxThreadStatSlots threads fault; keyed
// with an impossible tid so it still shows up in snapshots.
ThreadStatSlot g_thread_stats_overflow;

thread_local ThreadStatSlot* t_stat_slot = nullptr;

PKRUSAFE_AS_SAFE ThreadStatSlot* ClaimThreadStatSlot() {
  if (t_stat_slot != nullptr) {
    return t_stat_slot;
  }
  const uint64_t tid = telemetry::CurrentTid();
  for (size_t i = 0; i < kMaxThreadStatSlots; ++i) {
    uint64_t expected = 0;
    if (g_thread_stats[i].tid.compare_exchange_strong(expected, tid, std::memory_order_acq_rel)) {
      t_stat_slot = &g_thread_stats[i];
      return t_stat_slot;
    }
    if (expected == tid) {  // pre-claimed by an earlier life of this tid
      t_stat_slot = &g_thread_stats[i];
      return t_stat_slot;
    }
  }
  g_thread_stats_overflow.tid.store(~uint64_t{0}, std::memory_order_relaxed);
  t_stat_slot = &g_thread_stats_overflow;
  return t_stat_slot;
}

// Re-installs one of the engine's own handlers (used after a chained signal
// with a recoverable previous disposition returns control to us).
void InstallEngineHandler(int signo);

void ChainToPrevious(const struct sigaction& prev, int signo, siginfo_t* info, void* context) {
  if ((prev.sa_flags & SA_SIGINFO) != 0 && prev.sa_sigaction != nullptr) {
    prev.sa_sigaction(signo, info, context);
    return;
  }
  if (prev.sa_handler == SIG_IGN) {
    return;
  }
  if (prev.sa_handler != SIG_DFL && prev.sa_handler != nullptr) {
    prev.sa_handler(signo);
    return;
  }
  // Default disposition: the process is about to be terminated by the
  // kernel with the original signal. An unserviceable SIGSEGV (wild pointer,
  // not an MPK fault — or one while no delegate was installed) is exactly
  // what the flight recorder exists for; capture it before re-raising.
  if (signo == SIGSEGV) {
    telemetry::FatalFaultInfo fatal;
    fatal.reason = "segv";
    fatal.signo = signo;
    if (info != nullptr) {
      fatal.has_fault_address = true;
      fatal.fault_address = reinterpret_cast<uint64_t>(info->si_addr);
    }
    if (FaultSignalDelegate* delegate = g_delegate.load(std::memory_order_acquire)) {
      fatal.has_pkru = true;
      fatal.pkru = delegate->ReadPkru().raw();
    }
    telemetry::FlightRecorder::Global().WriteFatalReport(fatal);
  }
  // Deliver through the previous disposition instead of clobbering ours with
  // signal(signo, SIG_DFL): the v1 code permanently reset the disposition,
  // so a recoverable MPK fault racing on another thread (or arriving after a
  // survivable chained signal) was mishandled by the default action. Restore
  // the exact previous sigaction, re-raise, and — should the process survive
  // (it normally dies here) — put our handler back.
  sigaction(signo, &prev, nullptr);
  raise(signo);
  InstallEngineHandler(signo);
}

void DieWithViolation(const MpkFault& fault) {
  // Postmortem first: the flight recorder formats into a static arena and
  // writes to a pre-opened fd, so this is async-signal-safe (no-op when the
  // recorder is not configured).
  telemetry::FatalFaultInfo fatal;
  fatal.reason = "mpk-violation";
  fatal.signo = SIGSEGV;
  fatal.has_fault_address = true;
  fatal.fault_address = fault.address;
  fatal.access_kind = fault.kind == AccessKind::kWrite ? 1 : 0;
  fatal.has_pkey = true;
  fatal.pkey = fault.key;
  fatal.has_pkru = true;
  fatal.pkru = fault.pkru.raw();
  telemetry::FlightRecorder::Global().WriteFatalReport(fatal);

  // Async-signal-safe-ish reporting: fixed buffer + write(2) via fprintf is
  // tolerated here because we are about to terminate anyway.
  std::fprintf(stderr,
               "pkru-safe: fatal MPK violation: %s of 0x%zx (pkey %u) denied; terminating\n",
               AccessKindName(fault.kind), fault.address, static_cast<unsigned>(fault.key));
  std::fflush(stderr);
  signal(SIGSEGV, SIG_DFL);
  raise(SIGSEGV);
}

#if defined(__x86_64__)
PKRUSAFE_AS_SAFE void NoteStepBegin() {
  const uint32_t active = g_active_steps.fetch_add(1, std::memory_order_acq_rel) + 1;
  uint32_t max = g_max_concurrent_steps.load(std::memory_order_relaxed);
  while (active > max &&
         !g_max_concurrent_steps.compare_exchange_weak(max, active, std::memory_order_relaxed)) {
  }
}
#endif

void SegvHandler(int signo, siginfo_t* info, void* context) {
#if defined(__x86_64__)
  FaultSignalDelegate* delegate = g_delegate.load(std::memory_order_acquire);
  auto* uc = static_cast<ucontext_t*>(context);
  const auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const bool is_write =
      (static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_ERR]) & kPageFaultWriteBit) != 0;

  std::optional<MpkFault> fault;
  if (delegate != nullptr) {
    fault = delegate->Classify(addr, is_write);
  }
  if (!fault.has_value()) {
    ChainToPrevious(g_prev_segv, signo, info, context);
    return;
  }

  const uint64_t entry_ns = telemetry::Enabled() ? telemetry::NowNs() : 0;
  const FaultResolution resolution = delegate->OnFault(*fault);
  if (resolution == FaultResolution::kDeny) {
    if (g_metrics.denied != nullptr) {
      g_metrics.denied->Increment();
    }
    if (entry_ns != 0) {
      telemetry::RecordEventAt(entry_ns, telemetry::TraceEventType::kFaultDenied,
                               static_cast<uint8_t>(fault->kind), fault->address, fault->key);
    }
    DieWithViolation(*fault);
    return;  // unreachable
  }
  const bool latch = resolution == FaultResolution::kRetryAndLatch;

  PendingStep& step = t_pending;
  if (step.count == 0) {
    step.segv_entry_ns = entry_ns;
    NoteStepBegin();
  } else {
    g_reentrant_faults.fetch_add(1, std::memory_order_relaxed);
    if (g_metrics.reentrant != nullptr) {
      g_metrics.reentrant->Increment();
    }
  }
  if (step.count < kMaxStepFaults) {
    step.faults[step.count].fault = *fault;
    step.faults[step.count].latch = latch;
    step.count += 1;
  } else {
    // No room to remember this page for re-protection: it stays open until
    // the run ends. Bounded by the pages one instruction can touch; count
    // it instead of deadlocking.
    g_step_overflows.fetch_add(1, std::memory_order_relaxed);
  }

  g_serviced_faults.fetch_add(1, std::memory_order_relaxed);
  if (g_metrics.serviced != nullptr) {
    g_metrics.serviced->Increment();
  }
  if (entry_ns != 0) {
    telemetry::RecordEventAt(entry_ns, telemetry::TraceEventType::kFaultServiced,
                             static_cast<uint8_t>(fault->kind), fault->address, fault->key);
  }
  delegate->AllowOnce(*fault);
  uc->uc_mcontext.gregs[REG_EFL] |= static_cast<greg_t>(kEflagsTrapFlag);
#else
  (void)signo;
  (void)info;
  (void)context;
  ChainToPrevious(g_prev_segv, signo, info, context);
#endif
}

#if defined(__x86_64__)
PKRUSAFE_AS_SAFE void FinishStep(uint64_t entry_ns, uint64_t serviced_in_step) {
  if (entry_ns != 0 && g_metrics.service_ns != nullptr) {
    const uint64_t elapsed = telemetry::NowNs() - entry_ns;
    g_metrics.service_ns->Observe(elapsed);
    ThreadStatSlot* slot = ClaimThreadStatSlot();
    slot->serviced.fetch_add(serviced_in_step, std::memory_order_relaxed);
    slot->service_ns.fetch_add(elapsed, std::memory_order_relaxed);
  } else {
    ThreadStatSlot* slot = ClaimThreadStatSlot();
    slot->serviced.fetch_add(serviced_in_step, std::memory_order_relaxed);
  }
}
#endif

void TrapHandler(int signo, siginfo_t* info, void* context) {
#if defined(__x86_64__)
  FaultSignalDelegate* delegate = g_delegate.load(std::memory_order_acquire);
  if (delegate != nullptr && t_pending.count > 0) {
    auto* uc = static_cast<ucontext_t*>(context);
    PendingStep& step = t_pending;
    // Restore protection for every page this step opened. Latched faults
    // are left open on purpose; the backend's Reprotect also skips pages
    // in its latched set, this just avoids the redundant call.
    for (int i = step.count - 1; i >= 0; --i) {
      if (!step.faults[i].latch) {
        delegate->Reprotect(step.faults[i].fault);
      }
    }
    FinishStep(step.segv_entry_ns, static_cast<uint64_t>(step.count));
    uc->uc_mcontext.gregs[REG_EFL] &= ~static_cast<greg_t>(kEflagsTrapFlag);
    step.count = 0;
    step.segv_entry_ns = 0;
    g_active_steps.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
#endif
  ChainToPrevious(g_prev_trap, signo, info, context);
}

void InstallEngineHandler(int signo) {
  if (!g_installed) {
    return;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = signo == SIGSEGV ? SegvHandler : TrapHandler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  sigaction(signo, &sa, nullptr);
}

}  // namespace

Status FaultSignalEngine::Install(FaultSignalDelegate* delegate) {
  if (delegate == nullptr) {
    return InvalidArgumentError("null delegate");
  }
  FaultSignalDelegate* current = g_delegate.load(std::memory_order_acquire);
  if (current == delegate && g_installed) {
    return Status::Ok();
  }
  if (current != nullptr && current != delegate) {
    return FailedPreconditionError("another fault delegate is already installed");
  }

  ResolveSignalMetrics();

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = SegvHandler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGSEGV, &sa, &g_prev_segv) != 0) {
    return InternalError("sigaction(SIGSEGV) failed");
  }

  struct sigaction ta;
  memset(&ta, 0, sizeof(ta));
  ta.sa_sigaction = TrapHandler;
  ta.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&ta.sa_mask);
  if (sigaction(SIGTRAP, &ta, &g_prev_trap) != 0) {
    sigaction(SIGSEGV, &g_prev_segv, nullptr);
    return InternalError("sigaction(SIGTRAP) failed");
  }

  g_delegate.store(delegate, std::memory_order_release);
  g_installed = true;
  return Status::Ok();
}

void FaultSignalEngine::Uninstall() {
  if (!g_installed) {
    return;
  }
  sigaction(SIGSEGV, &g_prev_segv, nullptr);
  sigaction(SIGTRAP, &g_prev_trap, nullptr);
  g_delegate.store(nullptr, std::memory_order_release);
  g_installed = false;
}

bool FaultSignalEngine::installed() { return g_installed; }

uint64_t FaultSignalEngine::serviced_fault_count() {
  return g_serviced_faults.load(std::memory_order_relaxed);
}

uint64_t FaultSignalEngine::reentrant_fault_count() {
  return g_reentrant_faults.load(std::memory_order_relaxed);
}

uint32_t FaultSignalEngine::max_concurrent_steps() {
  return g_max_concurrent_steps.load(std::memory_order_relaxed);
}

uint32_t FaultSignalEngine::active_steps() {
  return g_active_steps.load(std::memory_order_relaxed);
}

size_t FaultSignalEngine::SnapshotThreadStats(ThreadFaultStats* out, size_t max) {
  size_t written = 0;
  for (size_t i = 0; i < kMaxThreadStatSlots && written < max; ++i) {
    const uint64_t tid = g_thread_stats[i].tid.load(std::memory_order_acquire);
    if (tid == 0) {
      continue;
    }
    out[written].tid = tid;
    out[written].serviced = g_thread_stats[i].serviced.load(std::memory_order_relaxed);
    out[written].service_ns = g_thread_stats[i].service_ns.load(std::memory_order_relaxed);
    ++written;
  }
  const uint64_t overflow_tid = g_thread_stats_overflow.tid.load(std::memory_order_acquire);
  if (overflow_tid != 0 && written < max) {
    out[written].tid = overflow_tid;
    out[written].serviced = g_thread_stats_overflow.serviced.load(std::memory_order_relaxed);
    out[written].service_ns = g_thread_stats_overflow.service_ns.load(std::memory_order_relaxed);
    ++written;
  }
  return written;
}

void FaultSignalEngine::ResetCountersForTest() {
  g_serviced_faults.store(0, std::memory_order_relaxed);
  g_reentrant_faults.store(0, std::memory_order_relaxed);
  g_step_overflows.store(0, std::memory_order_relaxed);
  g_max_concurrent_steps.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxThreadStatSlots; ++i) {
    g_thread_stats[i].serviced.store(0, std::memory_order_relaxed);
    g_thread_stats[i].service_ns.store(0, std::memory_order_relaxed);
  }
  g_thread_stats_overflow.serviced.store(0, std::memory_order_relaxed);
  g_thread_stats_overflow.service_ns.store(0, std::memory_order_relaxed);
}

Status NativeMpkBackend::InstallSignalHandlers() { return FaultSignalEngine::Install(this); }

void NativeMpkBackend::UninstallSignalHandlers() {
  if (FaultSignalEngine::installed()) {
    FaultSignalEngine::Uninstall();
  }
}

std::optional<MpkFault> NativeMpkBackend::Classify(uintptr_t addr, bool is_write) {
  if (!page_keys_.IsTagged(addr)) {
    return std::nullopt;
  }
  const PkeyId key = page_keys_.KeyFor(addr);
  const PkruValue pkru = EnforcedPkru();
  const AccessKind kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  if (pkru.Allows(key, kind)) {
    return std::nullopt;
  }
  return MpkFault{addr, kind, key, pkru};
}

void NativeMpkBackend::AllowOnce(const MpkFault& fault) {
  const uintptr_t page = PageDown(fault.address);
  for (uintptr_t p = page; p <= page + kPageSize; p += kPageSize) {
    if (page_keys_.IsTagged(p)) {
      OpenPage(p);
    }
  }
}

void NativeMpkBackend::Reprotect(const MpkFault& fault) {
  const uintptr_t page = PageDown(fault.address);
  for (uintptr_t p = page; p <= page + kPageSize; p += kPageSize) {
    if (page_keys_.IsTagged(p) && !latched_.Contains(p)) {
      RestorePage(p, page_keys_.KeyFor(p));
    }
  }
}

}  // namespace pkrusafe
