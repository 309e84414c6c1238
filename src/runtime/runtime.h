// The PKRU-Safe runtime: one object wiring together the MPK backend, the
// compartment-aware allocator (which keeps allocation provenance as site
// tags), the profiling fault handler and the allocation-site policy.
//
// A runtime is created in one of three modes, matching the three binaries of
// the paper's artifact experiment E1:
//   * kDisabled  — baseline: no partitioning, no gates semantics (the gate
//                  API still works but the policy never moves a site).
//   * kProfiling — everything trusted allocates in M_T with provenance
//                  registration; MPK faults from U are recorded into the
//                  profile and single-stepped past (permissive mode).
//   * kEnforcing — sites named by the loaded profile allocate from M_U;
//                  every other trusted site stays in M_T; MPK faults deny.
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mpk/backend.h"
#include "src/mpk/backend_factory.h"
#include "src/mpk/fault_rate_budget.h"
#include "src/pkalloc/pkalloc.h"
#include "src/runtime/call_gate.h"
#include "src/runtime/profile.h"
#include "src/runtime/site_policy.h"
#include "src/support/stable_index_array.h"

namespace pkrusafe {

namespace telemetry {
struct CrashProvenance;
}  // namespace telemetry

enum class RuntimeMode : uint8_t {
  kDisabled = 0,
  kProfiling = 1,
  kEnforcing = 2,
};

inline const char* RuntimeModeName(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kDisabled:
      return "disabled";
    case RuntimeMode::kProfiling:
      return "profiling";
    case RuntimeMode::kEnforcing:
      return "enforcing";
  }
  return "?";
}

struct RuntimeConfig {
  BackendKind backend = BackendKind::kSim;
  RuntimeMode mode = RuntimeMode::kDisabled;
  PkAllocatorConfig allocator;
  // First-fault site latching (profiling mode): after a (site, page) pair is
  // recorded once, pages fully covered by the faulting object are downgraded
  // to the shared key for the rest of the run, so hot sites stop paying a
  // signal round-trip per access. Counts become approximate (first fault per
  // latched page only); the site set is unchanged.
  bool latch_sites = false;
  // Enforcement policy; typically SitePolicy::FromProfile(profile).
  SitePolicy policy;
  // Always-on sampled profiling (enforcement mode only): keep observing
  // boundary crossings while enforcement stays live. Sites in
  // `sampling_candidates` — the statically-shared-but-unpromoted sites, i.e.
  // the points-to envelope minus the loaded profile — fault-and-record
  // instead of fault-and-die; a `sampling.page_fraction` of their pages stay
  // trap-on-touch for ongoing counts (the rest latch open after the first
  // recorded fault), throttled by the token-bucket budget. Sites OUTSIDE the
  // candidates still deny: sampling never widens what the static analysis
  // already proved may flow to U.
  bool sampled_profiling = false;
  FaultRateBudgetOptions sampling;
  std::unordered_set<AllocId, AllocIdHasher> sampling_candidates;
};

// Snapshot of the runtime's registry-backed metrics. Every field reads the
// same counters the global MetricsRegistry exposes (as runtime.* callback
// gauges), so `stats()`, `--stats=json` and the exporters can never drift.
struct RuntimeStats {
  uint64_t transitions = 0;            // both directions summed
  uint64_t transitions_to_untrusted = 0;  // T -> U crossings
  uint64_t transitions_to_trusted = 0;    // U -> T crossings
  uint64_t profile_faults = 0;
  uint64_t latched_faults = 0;      // faults that latched their page open
  uint64_t step_window_misses = 0;  // co-located sites re-recorded at latch time
  // Sampled profiling in enforce mode (profile.sampled.* counters).
  uint64_t sampled_faults = 0;         // faults entering the sampled path
  uint64_t sampled_recorded = 0;       // attributed to a candidate and recorded
  uint64_t sampled_trapping = 0;       // serviced with the page kept trapping
  uint64_t sampled_latched = 0;        // latched open (page outside the sample)
  uint64_t sampled_autolatched = 0;    // latched because the budget ran dry
  uint64_t sampled_denied_static = 0;  // denied: outside the static candidates
  size_t sites_seen = 0;        // distinct AllocIds that allocated
  size_t sites_shared = 0;      // sites the policy serves from M_U
  uint64_t trusted_bytes = 0;   // cumulative usable bytes from M_T
  uint64_t untrusted_bytes = 0; // cumulative usable bytes from M_U
  // Share of heap traffic landing in M_U (the %M_U column of Tables 1-2).
  double untrusted_fraction() const {
    const uint64_t total = trusted_bytes + untrusted_bytes;
    return total == 0 ? 0.0 : static_cast<double>(untrusted_bytes) / static_cast<double>(total);
  }
};

class PkruSafeRuntime {
 public:
  static Result<std::unique_ptr<PkruSafeRuntime>> Create(RuntimeConfig config);
  ~PkruSafeRuntime();

  PkruSafeRuntime(const PkruSafeRuntime&) = delete;
  PkruSafeRuntime& operator=(const PkruSafeRuntime&) = delete;

  RuntimeMode mode() const { return mode_; }

  // --- Allocation API (the paper's liballoc extensions, §4.2) ---

  // __rust_alloc analogue: a trusted-code allocation at `site`. The mode and
  // policy decide which pool actually serves it.
  void* AllocTrusted(AllocId site, size_t size);

  // __rust_untrusted_alloc analogue: memory explicitly destined for U.
  void* AllocUntrusted(size_t size);

  // Sited variant: instrumented IR keeps AllocIds on alloc_untrusted
  // instructions (including sites the ProfileApplyPass moved), so forensics
  // and per-site attribution can follow M_U objects too.
  void* AllocUntrusted(AllocId site, size_t size);

  // __rust_realloc analogue: stays in the pool of `ptr`; provenance follows.
  void* Realloc(void* ptr, size_t new_size);

  void Free(void* ptr);

  // --- Compartment transitions ---
  GateSet& gates() { return *gates_; }

  // --- Profiling ---
  Profile TakeProfile() const { return recorder_.TakeProfile(); }
  // The current policy. The reference stays valid for the life of the
  // runtime (superseded policies are retired, not freed), but a caller that
  // wants to observe later promotions must re-fetch.
  const SitePolicy& policy() const {
    return *policy_.load(std::memory_order_acquire);
  }
  // The sampling budget, or nullptr when sampled profiling is off.
  const FaultRateBudget* sampling_budget() const { return budget_.get(); }

  // --- Online re-partitioning ---
  struct PromotionResult {
    size_t promoted = 0;        // sites newly marked shared
    size_t already_shared = 0;  // sites the policy already served from M_U
    size_t pages_opened = 0;    // pages of live objects downgraded to M_U's key
  };

  // Marks `sites` as shared without a restart: future allocations at those
  // sites are served from M_U, and pages fully covered by their LIVE objects
  // are downgraded to the shared key so in-flight data stops faulting too.
  // Callers (the aggregation service) must only pass sites inside the static
  // points-to bound — the aggregator cross-checks before calling. Thread-safe
  // against concurrent allocation and fault handling (policy swaps are
  // copy-on-write; superseded policies are retired until destruction).
  PromotionResult ApplyPromotions(const std::vector<AllocId>& sites);

  struct DemotionResult {
    size_t demoted = 0;        // sites newly returned to M_T
    size_t not_shared = 0;     // sites the policy already served from M_T
    size_t baseline_kept = 0;  // refused: the loaded baseline profile shares them
    size_t pages_closed = 0;   // latched pages of live objects re-protected
  };

  // The reverse of ApplyPromotions: returns cold `sites` to trap-on-touch
  // without a restart. Future allocations at a demoted site are served from
  // M_T again, and pages its live objects had latched open are un-latched
  // and re-protected, so stale in-flight data starts faulting (and being
  // re-observed) immediately. Sites in the baseline profile the runtime was
  // configured with are never demoted — a demotion must not contradict the
  // profile the build was partitioned against. Thread-safe, same
  // copy-on-write policy swap as ApplyPromotions.
  DemotionResult ApplyDemotions(const std::vector<AllocId>& sites);

  // --- Introspection ---
  MpkBackend& backend() { return *backend_; }
  PkAllocator& allocator() { return *allocator_; }
  PkeyId trusted_key() const { return allocator_->trusted_key(); }

  RuntimeStats stats() const;

 private:
  PkruSafeRuntime(RuntimeConfig config, std::unique_ptr<MpkBackend> backend,
                  std::unique_ptr<PkAllocator> allocator);

  FaultResolution OnMpkFault(const MpkFault& fault);
  // The sampled-profiling arm of OnMpkFault (enforcing mode, budget_ set).
  // kDeny means the fault falls through to the ordinary denial accounting.
  FaultResolution OnSampledEnforcingFault(const MpkFault& fault);
  // The latch step both fault paths share: opens `fault_page` for good when
  // the faulting `block` fully covers it, first re-recording the other
  // tracked sites in a process-wide step window (only those in
  // `window_filter` when it is non-null). Returns false, latching nothing,
  // for a partly covered page. Async-signal-safe.
  bool LatchCoveredPage(uintptr_t fault_page, const TaggedBlock& block,
                        const std::unordered_set<AllocId, AllocIdHasher>* window_filter);

  // The flight recorder's provenance resolver (ctx: the runtime).
  // Async-signal-safe.
  static void ResolveCrashProvenance(void* ctx, uint64_t addr, telemetry::CrashProvenance* out);

  // The site tag of `site`, interned on first sight (takes sites_mutex_).
  uint32_t InternSite(AllocId site);
  // The site a tag names. Lock-free and async-signal-safe; `tag` must come
  // from InternSite (every tag the allocator hands back does).
  AllocId SiteOfTag(uint32_t tag) const { return *site_ids_.at(tag - 1); }

  // The sited allocation AllocTrusted and AllocUntrusted both make.
  void* AllocAt(AllocId site, Domain domain, size_t size);
  // Publishes, under policy_mutex_, a copy of the policy with `edit(copy,
  // id)` applied to each of `sites`; returns the sites it changed (true).
  template <typename Edit>
  std::vector<AllocId> EditPolicy(const std::vector<AllocId>& sites, Edit edit);
  // Applies `update` to the pages the tracked objects of `sites` fully
  // cover; returns their count.
  size_t UpdateCoveredPages(const std::vector<AllocId>& sites,
                            void (MpkBackend::*update)(uintptr_t, uintptr_t));

  // Whether sited allocations should carry site tags: always in profiling
  // mode (the paper's pipeline), and additionally whenever the flight
  // recorder or site attribution needs pointer→site resolution in
  // enforcement mode.
  bool TracksProvenance() const;

  RuntimeMode mode_;
  bool latch_sites_;
  // Copy-on-write policy: readers (the allocation hot path, fault handlers)
  // load the pointer lock-free; EditPolicy clones, mutates and swaps under
  // policy_mutex_. Superseded policies park in policies_ until the
  // runtime dies, so a borrowed policy() reference can never dangle.
  std::atomic<const SitePolicy*> policy_;
  std::mutex policy_mutex_;
  std::vector<std::unique_ptr<const SitePolicy>> policies_;
  // Shared sites of the policy the runtime was CREATED with (the loaded
  // baseline profile). ApplyDemotions refuses to demote these.
  std::unordered_set<AllocId, AllocIdHasher> baseline_shared_;
  std::unique_ptr<MpkBackend> backend_;
  std::unique_ptr<PkAllocator> allocator_;
  std::unique_ptr<GateSet> gates_;
  ProfileRecorder recorder_;
  // Sampled profiling (enforce mode): non-null iff config.sampled_profiling.
  // candidates_ is immutable after construction — the fault handler reads it
  // from signal context.
  std::unique_ptr<FaultRateBudget> budget_;
  const std::unordered_set<AllocId, AllocIdHasher> sampling_candidates_;

  // The intern table of every site that allocated: AllocId -> site tag, the
  // tag being the site's index in site_ids_ plus one (tag 0 is "untagged").
  mutable std::mutex sites_mutex_;
  std::unordered_map<AllocId, uint32_t, AllocIdHasher> sites_seen_;
  // Tag - 1 -> AllocId, appended under sites_mutex_ and read lock-free by
  // the fault handlers.
  StableIndexArray<AllocId, 1024, 64> site_ids_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_RUNTIME_H_
