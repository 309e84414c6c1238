#include "src/mpk/fault_rate_budget.h"

#include "src/memmap/page.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace {

// Fibonacci hashing spreads consecutive page numbers uniformly over the
// 64-bit space, so a threshold compare selects an unbiased `page_fraction`
// of pages regardless of layout.
constexpr uint64_t kFibonacci64 = 0x9e3779b97f4a7c15ULL;

uint64_t MixPage(uint64_t page_number, uint64_t seed) {
  uint64_t x = (page_number + seed) * kFibonacci64;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

uint64_t FractionToThreshold(double fraction) {
  if (fraction <= 0.0) return 0;
  if (fraction >= 1.0) return ~uint64_t{0};
  // 2^64 * fraction, computed in long double to keep 64 significant bits.
  const long double scaled =
      static_cast<long double>(fraction) * 18446744073709551616.0L;
  return static_cast<uint64_t>(scaled);
}

}  // namespace

FaultRateBudget::FaultRateBudget(const FaultRateBudgetOptions& options)
    : options_(options),
      sample_threshold_(FractionToThreshold(options.page_fraction)),
      tokens_ns_(options.service_ns_per_interval) {}

bool FaultRateBudget::SamplesPage(uintptr_t addr) const {
  if (sample_threshold_ == 0) return false;
  if (sample_threshold_ == ~uint64_t{0}) return true;
  const uint64_t page_number = static_cast<uint64_t>(addr) / kPageSize;
  return MixPage(page_number, options_.seed) < sample_threshold_;
}

bool FaultRateBudget::Admit() {
  return AdmitAt(telemetry::NowNs(), options_.fault_cost_ns);
}

bool FaultRateBudget::AdmitAt(uint64_t now_ns, uint64_t cost_ns) {
  const uint64_t interval_ns = options_.interval_ms * 1'000'000ULL;
  uint64_t start = interval_start_ns_.load(std::memory_order_relaxed);
  if (start == 0 || (interval_ns != 0 && now_ns >= start + interval_ns)) {
    // One thread wins the CAS and refills the bucket for the new interval;
    // losers proceed against the refilled bucket. Refill is a store (not an
    // add): unspent tokens do not carry over, keeping the ceiling per-interval.
    // The first interval keeps the bucket the constructor filled: a store
    // there would erase what losers already spent from it.
    if (interval_start_ns_.compare_exchange_strong(start, now_ns,
                                                   std::memory_order_relaxed) &&
        start != 0) {
      tokens_ns_.store(options_.service_ns_per_interval,
                       std::memory_order_relaxed);
    }
  }
  uint64_t tokens = tokens_ns_.load(std::memory_order_relaxed);
  while (true) {
    if (tokens < cost_ns) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (tokens_ns_.compare_exchange_weak(tokens, tokens - cost_ns,
                                         std::memory_order_relaxed)) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

}  // namespace pkrusafe
