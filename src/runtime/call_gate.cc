#include "src/runtime/call_gate.h"

#include <cstdlib>

#include "src/support/compiler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

// Every member has an initializer, so tls_stack is constant-initialized and
// a crossing pays no thread_local guard.
struct Frame {
  PkruValue saved_pkru;
  Domain entered = Domain::kTrusted;
};

struct StackStorage {
  Frame frames[CompartmentStack::kMaxDepth];
  size_t depth = 0;
};

thread_local StackStorage tls_stack;

// Per-crossing PKRU-write latency, pooled across every crossing. Transition
// *counts* stay with the callers (GateSet's per-thread direction counts are
// the source of truth Tables 1-2 read); the runtime mirrors those into the
// registry as callback gauges.
telemetry::Histogram* CrossingHistogram() {
  static telemetry::Histogram* histogram = telemetry::MetricsRegistry::Global().GetOrCreateHistogram(
      "gate.crossing_ns", telemetry::Histogram::ExponentialBounds(16, 2.0, 20));
  return histogram;
}

uint8_t Direction(bool to_untrusted) {
  return static_cast<uint8_t>(to_untrusted ? telemetry::TraceDirection::kTrustedToUntrusted
                                           : telemetry::TraceDirection::kUntrustedToTrusted);
}

// The failure paths stay out of line, so a crossing is a few loads and
// stores around the backend's PKRU write and read.
[[noreturn]] PS_NOINLINE void CrossingFailed(const char* what) {
  PS_LOG(Fatal) << what;
  std::abort();
}

[[noreturn]] PS_NOINLINE void VerificationFailed(PkruValue target, PkruValue actual) {
  PS_LOG(Fatal) << "call gate PKRU verification failed: wrote " << target.ToString()
                << " but register holds " << actual.ToString();
  std::abort();
}

inline void WriteAndMaybeVerify(MpkBackend* backend, PkruValue target, bool verify) {
  backend->WritePkru(target);
  if (verify) {
    const PkruValue actual = backend->ReadPkru();
    if (actual != target) [[unlikely]] {
      VerificationFailed(target, actual);
    }
  }
}

}  // namespace

size_t CompartmentStack::Depth() { return tls_stack.depth; }

Domain CompartmentStack::CurrentDomain() {
  const StackStorage& stack = tls_stack;
  return stack.depth == 0 ? Domain::kTrusted : stack.frames[stack.depth - 1].entered;
}

// The PKRU-write trace event is recorded in the traced branches, not in
// WriteAndMaybeVerify, so the untraced path pays exactly one
// telemetry::Enabled() check per crossing (the cost contract
// bench_callgate_micro verifies).

void CompartmentStack::Enter(MpkBackend* backend, Domain entered, PkruValue saved,
                             PkruValue target, bool verify) {
  StackStorage& stack = tls_stack;
  if (stack.depth >= kMaxDepth) [[unlikely]] {
    CrossingFailed("compartment stack overflow");
  }
  stack.frames[stack.depth++] = Frame{saved, entered};
  if (!telemetry::Enabled()) [[likely]] {
    WriteAndMaybeVerify(backend, target, verify);
    return;
  }
  const uint64_t t0 = telemetry::NowNs();
  telemetry::RecordEventAt(t0, telemetry::TraceEventType::kGateEnter,
                           Direction(entered == Domain::kUntrusted), stack.depth, target.raw());
  WriteAndMaybeVerify(backend, target, verify);
  telemetry::RecordEvent(telemetry::TraceEventType::kPkruWrite, 0, target.raw());
  CrossingHistogram()->Observe(telemetry::NowNs() - t0);
}

void CompartmentStack::Exit(MpkBackend* backend, Domain entered, bool verify) {
  StackStorage& stack = tls_stack;
  if (stack.depth == 0) [[unlikely]] {
    CrossingFailed("compartment stack underflow");
  }
  const Frame frame = stack.frames[--stack.depth];
  if (frame.entered != entered) [[unlikely]] {
    CrossingFailed("unbalanced compartment transitions");
  }
  if (!telemetry::Enabled()) [[likely]] {
    WriteAndMaybeVerify(backend, frame.saved_pkru, verify);
    return;
  }
  const uint64_t t0 = telemetry::NowNs();
  WriteAndMaybeVerify(backend, frame.saved_pkru, verify);
  const uint64_t t1 = telemetry::NowNs();
  CrossingHistogram()->Observe(t1 - t0);
  telemetry::RecordEventAt(t1, telemetry::TraceEventType::kPkruWrite, 0, frame.saved_pkru.raw());
  telemetry::RecordEventAt(t1, telemetry::TraceEventType::kGateExit,
                           Direction(entered != Domain::kUntrusted), stack.depth,
                           frame.saved_pkru.raw());
}

void GateSet::EnterUntrusted() {
  if (!enabled_) {
    return;
  }
  Count(kToUntrusted);
  const PkruValue saved = backend_->ReadPkru();
  CompartmentStack::Enter(backend_, Domain::kUntrusted, saved,
                          saved.WithAccessDisabled(trusted_key_), verify_);
}

void GateSet::ExitUntrusted() {
  if (!enabled_) {
    return;
  }
  CompartmentStack::Exit(backend_, Domain::kUntrusted, verify_);
  Count(kToTrusted);
}

void GateSet::EnterTrusted() {
  if (!enabled_) {
    return;
  }
  Count(kToTrusted);
  const PkruValue saved = backend_->ReadPkru();
  CompartmentStack::Enter(backend_, Domain::kTrusted, saved, saved.WithKeyAllowed(trusted_key_),
                          verify_);
}

void GateSet::ExitTrusted() {
  if (!enabled_) {
    return;
  }
  CompartmentStack::Exit(backend_, Domain::kTrusted, verify_);
  Count(kToUntrusted);
}

}  // namespace pkrusafe
