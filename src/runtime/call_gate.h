// Call gates: the compartment-transition mechanism (paper §3.3, §4.1).
//
// Every call from T into an annotated untrusted library is wrapped so the
// thread first drops its right to access M_T, and restores the previous
// rights when execution returns. Rights are not assumed — they are kept on a
// per-thread compartment stack so nested and re-entrant transitions restore
// exactly what was in force before the call.
//
// Every crossing — a GateSet gate and a MultiCompartment library Scope alike
// — goes through one routine, CompartmentStack::Enter/Exit: push or pop the
// saved PKRU, write the new value, verify that it took effect (aborting on
// mismatch, mirroring the paper's WRPKRU call-gate stubs), and, when tracing
// is enabled, emit the gate trace events and the gate.crossing_ns sample.
//
// GateSet counts its transitions per direction (T->U and U->T) in per-thread
// slots (src/support/per_thread.h), summed at read; the evaluation's
// "Transitions" columns (Tables 1-2) come from these counts, and the runtime
// mirrors them into the global metrics registry as callback gauges.
#ifndef SRC_RUNTIME_CALL_GATE_H_
#define SRC_RUNTIME_CALL_GATE_H_

#include <cstdint>
#include <utility>

#include "src/mpk/backend.h"
#include "src/support/logging.h"
#include "src/support/per_thread.h"

namespace pkrusafe {

// Per-thread stack of saved PKRU values + the domain the thread is running
// in. Depth is bounded; the paper observed deeply nested transition stacks in
// Servo's dom benchmarks, so the bound is generous.
class CompartmentStack {
 public:
  static constexpr size_t kMaxDepth = 512;

  // The one compartment crossing. Enter saves `saved` (the caller's current
  // PKRU) with the domain `entered`, installs `target` and, when `verify`,
  // checks that the register holds it. Exit pops the innermost frame, which
  // must have entered `entered`, and restores its saved PKRU the same way.
  static void Enter(MpkBackend* backend, Domain entered, PkruValue saved, PkruValue target,
                    bool verify);
  static void Exit(MpkBackend* backend, Domain entered, bool verify);

  static size_t Depth();
  static Domain CurrentDomain();  // kTrusted when the stack is empty
};

class GateSet {
 public:
  // `trusted_key` is the protection key tagging M_T. The backend must
  // outlive the gate set.
  GateSet(MpkBackend* backend, PkeyId trusted_key)
      : backend_(backend), trusted_key_(trusted_key) {}

  GateSet(const GateSet&) = delete;
  GateSet& operator=(const GateSet&) = delete;

  // T -> U: revoke access to M_T for this thread.
  void EnterUntrusted();
  void ExitUntrusted();

  // U -> T (callback / exported API): re-enable access to M_T.
  void EnterTrusted();
  void ExitTrusted();

  // Runs `fn` inside the untrusted compartment. Exception-safe: defined
  // below on top of UntrustedScope, so a throwing callable still unwinds
  // the compartment stack and restores the caller's PKRU.
  template <typename Fn, typename... Args>
  decltype(auto) CallUntrusted(Fn&& fn, Args&&... args);

  // Runs `fn` back inside the trusted compartment (callback path).
  template <typename Fn, typename... Args>
  decltype(auto) CallTrusted(Fn&& fn, Args&&... args);

  // Crossings into U (EnterUntrusted + ExitTrusted) and into T
  // (EnterTrusted + ExitUntrusted) — the per-direction "Transitions"
  // columns of Tables 1-2. Exact once the crossing threads are quiescent.
  uint64_t transitions_to_untrusted() const { return crossings_.Sum()[kToUntrusted]; }
  uint64_t transitions_to_trusted() const { return crossings_.Sum()[kToTrusted]; }
  // Total crossings in both directions (the historical aggregate API).
  uint64_t transition_count() const {
    const auto counts = crossings_.Sum();
    return counts[kToUntrusted] + counts[kToTrusted];
  }

  // Gate-verification ablation (§3.3: gates verify the written PKRU value).
  void set_verify(bool verify) { verify_ = verify; }
  bool verify() const { return verify_; }

  // Baseline builds carry no call gates at all: a disabled gate set turns
  // every transition into a no-op (no PKRU writes, no counting), so the same
  // application code can run as the paper's `base` configuration.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  PkeyId trusted_key() const { return trusted_key_; }

 private:
  enum : size_t { kToUntrusted, kToTrusted };

  // Counted on the caller's side of the crossing: before the PKRU write on
  // entry, after the restore on exit.
  void Count(size_t direction) { crossings_.Local().Add(direction); }

  MpkBackend* backend_;
  PkeyId trusted_key_;
  bool verify_ = true;
  bool enabled_ = true;
  PerThread<CounterSlot<GateSet, 2>> crossings_;
};

// RAII transition guards.
class UntrustedScope {
 public:
  explicit UntrustedScope(GateSet& gates) : gates_(gates) { gates_.EnterUntrusted(); }
  ~UntrustedScope() { gates_.ExitUntrusted(); }
  UntrustedScope(const UntrustedScope&) = delete;
  UntrustedScope& operator=(const UntrustedScope&) = delete;

 private:
  GateSet& gates_;
};

class TrustedScope {
 public:
  explicit TrustedScope(GateSet& gates) : gates_(gates) { gates_.EnterTrusted(); }
  ~TrustedScope() { gates_.ExitTrusted(); }
  TrustedScope(const TrustedScope&) = delete;
  TrustedScope& operator=(const TrustedScope&) = delete;

 private:
  GateSet& gates_;
};

// The call wrappers ride on the RAII guards so the exit gate runs during
// unwinding too: a callable that throws leaves the compartment stack
// balanced and the caller's PKRU restored before the exception escapes.
template <typename Fn, typename... Args>
decltype(auto) GateSet::CallUntrusted(Fn&& fn, Args&&... args) {
  UntrustedScope scope(*this);
  return std::forward<Fn>(fn)(std::forward<Args>(args)...);
}

template <typename Fn, typename... Args>
decltype(auto) GateSet::CallTrusted(Fn&& fn, Args&&... args) {
  TrustedScope scope(*this);
  return std::forward<Fn>(fn)(std::forward<Args>(args)...);
}

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_CALL_GATE_H_
