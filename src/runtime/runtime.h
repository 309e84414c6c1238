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
#include "src/runtime/site_stats.h"
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
  // Per-site heap attribution (SiteHeapTotals), in any mode: every sited
  // allocation carries its site tag and counts in its site's record.
  bool site_stats = false;
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
  // Every site that faulted, with its fault count. Safe to call while other
  // threads are still faulting (in-flight increments may be missed).
  Profile TakeProfile() const;
  // Whether allocations at `site` are currently served from M_U (in
  // enforcing mode): the loaded policy plus online promotions and demotions.
  bool IsShared(AllocId site) const;
  // The sampling budget, or nullptr when sampled profiling is off.
  const FaultRateBudget* sampling_budget() const { return budget_.get(); }

  // --- Per-site heap attribution (RuntimeConfig::site_stats) ---
  // Every site that allocated, sorted by id: its cumulative allocations per
  // pool from its record, its live blocks per pool from one walk of the
  // site tags. Exact, with nothing to flush, once the allocating threads
  // are quiescent. Empty when site_stats is off.
  std::vector<SiteTotals> SiteHeapTotals() const;

  // --- Online re-partitioning ---
  struct PromotionResult {
    size_t promoted = 0;        // sites newly marked shared
    size_t already_shared = 0;  // sites the policy already served from M_U
    size_t pages_opened = 0;    // pages of live objects downgraded to M_U's key
    size_t refused = 0;         // sites past the site table's capacity
  };

  // Marks `sites` as shared without a restart: future allocations at those
  // sites are served from M_U, and pages fully covered by their LIVE objects
  // are downgraded to the shared key so in-flight data stops faulting too.
  // Callers (the aggregation service) must only pass sites inside the static
  // points-to bound — the aggregator cross-checks before calling. A site
  // the full site table cannot hold is refused and counted. Thread-safe
  // against concurrent allocation and fault handling: each site's shared bit
  // flips in its site record under the intern table's mutex.
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
  // profile the build was partitioned against. Thread-safe, like
  // ApplyPromotions: the shared bits clear under the intern table's mutex.
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
  // tracked sites in a process-wide step window (only sampling candidates
  // when `candidates_only`). Returns false, latching nothing, for a partly
  // covered page. Async-signal-safe.
  bool LatchCoveredPage(uintptr_t fault_page, const TaggedBlock& block, bool candidates_only);

  // The flight recorder's provenance resolver (ctx: the runtime).
  // Async-signal-safe.
  static void ResolveCrashProvenance(void* ctx, uint64_t addr, telemetry::CrashProvenance* out);

  // What the runtime knows about one allocation site. The record of the
  // site with tag t is sites_[t - 1]; it lives as long as the runtime.
  struct SiteRecord {
    enum Flag : uint8_t {
      kShared = 1,     // allocations are served from M_U (enforcing mode)
      kBaseline = 2,   // shared by the configured policy: never demoted
      kCandidate = 4,  // a sampling candidate (fixed at Create)
      kAllocated = 8,  // the site has allocated (runtime.sites_seen)
    };
    bool Has(Flag flag) const { return (flags.load(std::memory_order_acquire) & flag) != 0; }

    AllocId id;
    // Written under sites_mutex_, read lock-free.
    std::atomic<uint8_t> flags{0};
    // Faults attributed to the site; bumped from signal context.
    std::atomic<uint64_t> faults{0};
    // Allocations per pool, indexed by Domain (site_stats only): usable
    // bytes and blocks, cumulative.
    std::atomic<uint64_t> total_bytes[2]{};
    std::atomic<uint64_t> total_objects[2]{};
  };

  // The tag of `site`, its record created without flags on first sight; 0
  // when the table is full. Caller holds sites_mutex_.
  uint32_t FindOrAddSiteLocked(AllocId site);
  // The site tag of `site`, interned on first sight and marked allocated
  // (takes sites_mutex_).
  uint32_t InternSite(AllocId site);
  // The record a tag names. Lock-free and async-signal-safe; `tag` must come
  // from InternSite (every tag the allocator hands back does).
  SiteRecord& RecordOf(uint32_t tag) const { return sites_[tag - 1]; }
  AllocId SiteOfTag(uint32_t tag) const { return RecordOf(tag).id; }
  // Sites whose records have `flag` set, and the sum of every site's
  // faults. Lock-free.
  size_t CountSites(SiteRecord::Flag flag) const;
  uint64_t TotalFaults() const;

  // The sited allocation AllocTrusted and AllocUntrusted both make.
  void* AllocAt(AllocId site, uint32_t tag, Domain domain, size_t size);
  // Counts one allocation of `bytes` in `domain` at the site `tag` names.
  void CountAllocation(uint32_t tag, Domain domain, size_t bytes);
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
  bool site_stats_;
  std::unique_ptr<MpkBackend> backend_;
  std::unique_ptr<PkAllocator> allocator_;
  std::unique_ptr<GateSet> gates_;
  // Sampled profiling (enforce mode): non-null iff config.sampled_profiling.
  std::unique_ptr<FaultRateBudget> budget_;

  // The intern table: one record per site the runtime was configured with
  // or has seen allocate or promote. AllocId -> site tag, the tag being the
  // record's index in sites_ plus one (tag 0 is "untagged").
  mutable std::mutex sites_mutex_;
  std::unordered_map<AllocId, uint32_t, AllocIdHasher> site_tags_;
  // Tag - 1 -> record, appended under sites_mutex_ and read lock-free by
  // the allocation path, the fault handlers and the stats.
  mutable StableIndexArray<SiteRecord, 1024, 64> sites_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_RUNTIME_H_
