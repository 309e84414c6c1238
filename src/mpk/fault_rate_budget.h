// Fault-rate budget for always-on sampled profiling in enforce mode.
//
// The continuous-profiling pipeline (docs/observability.md) keeps a fraction
// of candidate pages trap-on-touch while enforcement stays live, so profile
// observations keep streaming in from production. Two mechanisms bound the
// cost:
//
//   * page sampling — a deterministic hash of the page number against
//     `page_fraction` selects which pages keep trapping after their first
//     recorded fault (the rest latch open immediately: one fault, then free);
//   * a token bucket over fault-service time — each serviced fault spends an
//     estimated `fault_cost_ns` from a bucket refilled with
//     `service_ns_per_interval` tokens every `interval_ms`. When the bucket
//     runs dry the caller auto-latches the page (profile.sampled.autolatched)
//     so a hot page cannot drag the interval's fault-service time past the
//     ceiling.
//
// Admit() runs inside the SIGSEGV handler of the native backends, so the
// whole object is atomics: a CAS-claimed refill plus a CAS loop on the token
// count. No locks, no allocation.
#ifndef SRC_MPK_FAULT_RATE_BUDGET_H_
#define SRC_MPK_FAULT_RATE_BUDGET_H_

#include <atomic>
#include <cstdint>

#include "src/support/async_signal.h"

namespace pkrusafe {

struct FaultRateBudgetOptions {
  // Fraction of pages (by deterministic page-number hash) that stay
  // trap-on-touch for ongoing counts; everything else latches after its first
  // recorded fault. 0 disables ongoing sampling (pure first-touch), 1 samples
  // every page.
  double page_fraction = 0.01;
  // Token ceiling: nanoseconds of fault-service time admitted per interval.
  uint64_t service_ns_per_interval = 2'000'000;  // 2 ms per interval
  uint64_t interval_ms = 100;
  // Estimated cost charged per admitted fault (a signal round-trip plus a
  // single-step). Callers that measure real service time may charge that
  // instead.
  uint64_t fault_cost_ns = 4'000;
  // Salt for the page hash, so deployments can rotate which pages sample.
  uint64_t seed = 0;
};

class FaultRateBudget {
 public:
  explicit FaultRateBudget(const FaultRateBudgetOptions& options);
  FaultRateBudget(const FaultRateBudget&) = delete;
  FaultRateBudget& operator=(const FaultRateBudget&) = delete;

  // Whether the page containing `addr` is in the sampled fraction.
  // Deterministic for the life of the budget (same page always answers the
  // same), async-signal-safe. `addr` may be an offset into a pool, which
  // makes the choice independent of where the pool is mapped.
  PKRUSAFE_AS_SAFE bool SamplesPage(uintptr_t addr) const;

  // Spends `options().fault_cost_ns` from the bucket. True = within budget
  // (keep the page trapping); false = ceiling exceeded this interval
  // (auto-latch). Async-signal-safe.
  PKRUSAFE_AS_SAFE bool Admit();

  // Testable variant with explicit time and cost.
  PKRUSAFE_AS_SAFE bool AdmitAt(uint64_t now_ns, uint64_t cost_ns);

  const FaultRateBudgetOptions& options() const { return options_; }

  uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  uint64_t exhausted() const { return exhausted_.load(std::memory_order_relaxed); }
  // Tokens currently in the bucket (racy snapshot, for stats).
  uint64_t tokens_ns() const { return tokens_ns_.load(std::memory_order_relaxed); }

 private:
  const FaultRateBudgetOptions options_;
  // Pages whose (hashed) page number lands below this 64-bit threshold are in
  // the sampled fraction.
  const uint64_t sample_threshold_;

  std::atomic<uint64_t> tokens_ns_;
  std::atomic<uint64_t> interval_start_ns_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> exhausted_{0};
};

}  // namespace pkrusafe

#endif  // SRC_MPK_FAULT_RATE_BUDGET_H_
