#include "src/runtime/runtime.h"

#include "src/memmap/page.h"
#include "src/runtime/site_stats.h"
#include "src/support/logging.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

// --- Flight-recorder resolver thunks (async-signal-safe) -------------------
// The recorder lives below the mpk/runtime layers; these C-style callbacks
// give it crash-time access to the page-key map and the provenance table
// without a layering inversion.

size_t CrashRangeResolver(void* ctx, uint64_t addr, telemetry::CrashRange* out, size_t max) {
  auto* backend = static_cast<MpkBackend*>(ctx);
  constexpr size_t kWindow = 16;
  TaggedRangeInfo ranges[kWindow];
  const size_t n =
      backend->TaggedRangesNear(static_cast<uintptr_t>(addr), ranges, max < kWindow ? max : kWindow);
  for (size_t i = 0; i < n; ++i) {
    out[i].begin = ranges[i].begin;
    out[i].end = ranges[i].end;
    out[i].key = ranges[i].key;
  }
  return n;
}

void CrashProvenanceResolver(void* ctx, uint64_t addr, telemetry::CrashProvenance* out) {
  auto* tracker = static_cast<ProvenanceTracker*>(ctx);
  ProvenanceTracker::Record record;
  bool found = false;
  if (!tracker->LookupForSignal(static_cast<uintptr_t>(addr), &found, &record)) {
    out->status = 2;  // lock unavailable (held by the dying thread)
    return;
  }
  if (!found) {
    out->status = 0;
    return;
  }
  out->status = 1;
  out->base = record.base;
  out->size = record.size;
  out->function_id = record.id.function_id;
  out->block_id = record.id.block_id;
  out->site_id = record.id.site_id;
}

uint32_t CrashPkruReader(void* ctx) {
  (void)ctx;
  return CurrentThreadPkru().raw();
}

// Fault-outcome counters, shared across runtimes (one chokepoint for every
// backend: natively-enforcing ones route through the signal engine into
// OnMpkFault, the sim backend calls it directly).
telemetry::Counter* ProfiledFaultCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("runtime.faults.profiled");
  return counter;
}

telemetry::Counter* DeniedFaultCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("runtime.faults.denied");
  return counter;
}

// Profiling faults that hit trusted memory with no tracked allocation (or
// whose attribution lost a try_lock race): stepped past without a profile
// entry. Replaces the old PS_LOG(Warning) on this path, which allocated and
// locked from signal context.
telemetry::Counter* UnattributedFaultCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("runtime.fault.unattributed");
  return counter;
}

telemetry::Counter* LatchedFaultCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("runtime.fault.latched");
  return counter;
}

telemetry::Counter* StepWindowMissCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("runtime.fault.step_window_miss");
  return counter;
}

// Sampled-profiling outcome counters (enforce mode with a fault-rate
// budget). Exported by the sampler as profile.sampled.* rates.
telemetry::Counter* SampledFaultCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.faults");
  return counter;
}

telemetry::Counter* SampledRecordedCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.recorded");
  return counter;
}

telemetry::Counter* SampledTrappingCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.trapping");
  return counter;
}

telemetry::Counter* SampledLatchedCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.latched");
  return counter;
}

telemetry::Counter* SampledAutolatchedCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.autolatched");
  return counter;
}

telemetry::Counter* SampledDeniedStaticCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("profile.sampled.denied_static");
  return counter;
}

uint8_t AllocDetail(Domain domain, bool has_site) {
  return static_cast<uint8_t>((domain == Domain::kUntrusted ? 1 : 0) | (has_site ? 2 : 0));
}

void RecordAllocEvent(Domain domain, size_t size, const AllocId* site) {
  if (!telemetry::Enabled()) {
    return;
  }
  const uint64_t packed_site =
      site != nullptr
          ? (static_cast<uint64_t>(site->function_id) << 32) | static_cast<uint64_t>(site->block_id)
          : 0;
  telemetry::RecordEvent(telemetry::TraceEventType::kAlloc, AllocDetail(domain, site != nullptr),
                         size, packed_site, site != nullptr ? site->site_id : 0);
}

}  // namespace

PkruSafeRuntime::PkruSafeRuntime(RuntimeConfig config, std::unique_ptr<MpkBackend> backend,
                                 std::unique_ptr<PkAllocator> allocator)
    : mode_(config.mode),
      latch_sites_(config.latch_sites),
      backend_(std::move(backend)),
      allocator_(std::move(allocator)),
      sampling_candidates_(std::move(config.sampling_candidates)) {
  policies_.push_back(std::make_unique<const SitePolicy>(std::move(config.policy)));
  policy_.store(policies_.back().get(), std::memory_order_release);
  for (const AllocId id : policies_.back()->SharedSites()) {
    baseline_shared_.insert(id);
  }
  if (config.sampled_profiling && mode_ == RuntimeMode::kEnforcing) {
    budget_ = std::make_unique<FaultRateBudget>(config.sampling);
  }
  gates_ = std::make_unique<GateSet>(backend_.get(), allocator_->trusted_key());
  gates_->set_verify(config.verify_gates);
  // The baseline configuration has no instrumentation: gates become no-ops.
  gates_->set_enabled(mode_ != RuntimeMode::kDisabled);

  // Publish this runtime's live stats into the global registry as pull
  // gauges: exporters and stats() then read the exact same counters. With
  // several concurrent runtimes the most recently created one wins the
  // runtime.* names (each removes only its own on destruction).
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.SetCallbackGauge("runtime.transitions.t_to_u", this, [this] {
    return static_cast<int64_t>(gates_->transitions_to_untrusted());
  });
  registry.SetCallbackGauge("runtime.transitions.u_to_t", this, [this] {
    return static_cast<int64_t>(gates_->transitions_to_trusted());
  });
  registry.SetCallbackGauge("runtime.profile_faults", this, [this] {
    return static_cast<int64_t>(recorder_.total_faults());
  });
  registry.SetCallbackGauge("runtime.sites_seen", this, [this] {
    std::lock_guard lock(sites_mutex_);
    return static_cast<int64_t>(sites_seen_.size());
  });
  registry.SetCallbackGauge("runtime.sites_shared", this, [this] {
    return static_cast<int64_t>(policy_.load(std::memory_order_acquire)->shared_site_count());
  });
  registry.SetCallbackGauge("runtime.heap.trusted_bytes", this, [this] {
    return static_cast<int64_t>(allocator_->trusted_stats().total_bytes);
  });
  registry.SetCallbackGauge("runtime.heap.untrusted_bytes", this, [this] {
    return static_cast<int64_t>(allocator_->untrusted_stats().total_bytes);
  });
  // Live (not cumulative) per-domain heap occupancy, for the sampler's
  // time-series rows.
  registry.SetCallbackGauge("runtime.heap.trusted_live_bytes", this, [this] {
    return static_cast<int64_t>(allocator_->trusted_stats().live_bytes);
  });
  registry.SetCallbackGauge("runtime.heap.untrusted_live_bytes", this, [this] {
    return static_cast<int64_t>(allocator_->untrusted_stats().live_bytes);
  });

  // Force the lazily-created fault counters into existence now, then refresh
  // the flight recorder's crash-time handle table so a report taken before
  // the first fault still lists them.
  (void)ProfiledFaultCounter();
  (void)DeniedFaultCounter();
  (void)UnattributedFaultCounter();
  (void)LatchedFaultCounter();
  (void)StepWindowMissCounter();
  if (budget_ != nullptr) {
    (void)SampledFaultCounter();
    (void)SampledRecordedCounter();
    (void)SampledTrappingCounter();
    (void)SampledLatchedCounter();
    (void)SampledAutolatchedCounter();
    (void)SampledDeniedStaticCounter();
    registry.SetCallbackGauge("profile.sampled.budget_tokens_ns", this, [this] {
      return static_cast<int64_t>(budget_->tokens_ns());
    });
    registry.SetCallbackGauge("profile.sampled.budget_admitted", this, [this] {
      return static_cast<int64_t>(budget_->admitted());
    });
    registry.SetCallbackGauge("profile.sampled.budget_exhausted", this, [this] {
      return static_cast<int64_t>(budget_->exhausted());
    });
  }

  // Crash forensics wiring: let the recorder reach the page-key map, the
  // provenance table and the thread PKRU from signal context.
  auto& recorder = telemetry::FlightRecorder::Global();
  recorder.SetBackendName(backend_->name().data());
  recorder.SetRangeResolver(&CrashRangeResolver, backend_.get());
  recorder.SetProvenanceResolver(&CrashProvenanceResolver, &provenance_);
  recorder.SetPkruReader(&CrashPkruReader, this);
}

Result<std::unique_ptr<PkruSafeRuntime>> PkruSafeRuntime::Create(RuntimeConfig config) {
  PS_ASSIGN_OR_RETURN(std::unique_ptr<MpkBackend> backend, CreateMpkBackend(config.backend));
  PS_ASSIGN_OR_RETURN(std::unique_ptr<PkAllocator> allocator,
                      PkAllocator::Create(backend.get(), config.allocator));

  auto runtime = std::unique_ptr<PkruSafeRuntime>(
      new PkruSafeRuntime(std::move(config), std::move(backend), std::move(allocator)));

  // Route protection-key violations into the runtime's mode-dependent
  // handler, and let natively-enforcing backends hook their signals.
  runtime->backend_->SetFaultHandler(
      [rt = runtime.get()](const MpkFault& fault) { return rt->OnMpkFault(fault); });
  if (runtime->backend_->enforces_natively()) {
    PS_RETURN_IF_ERROR(runtime->backend_->PrepareNativeEnforcement());
  }
  // Refresh after native enforcement is prepared: installing the signal
  // engine registers the mpk.faults.* counters, and a crash report taken
  // before the first fault should still list them.
  telemetry::FlightRecorder::Global().RefreshMetricHandles();
  return runtime;
}

PkruSafeRuntime::~PkruSafeRuntime() {
  // Drop the fault handler before members are destroyed; a late fault must
  // not call into a half-dead runtime. Same for the registry callbacks and
  // the flight-recorder resolvers.
  backend_->SetFaultHandler(nullptr);
  auto& recorder = telemetry::FlightRecorder::Global();
  recorder.ClearResolversFor(backend_.get());
  recorder.ClearResolversFor(&provenance_);
  recorder.ClearResolversFor(this);
  telemetry::MetricsRegistry::Global().RemoveCallbackGauges(this);
}

bool PkruSafeRuntime::TracksProvenance() const {
  // Sampled profiling needs pointer→site attribution in enforce mode: both
  // the fault handler (candidate check) and ApplyPromotions (live pages of a
  // promoted site) resolve through the provenance table.
  return mode_ == RuntimeMode::kProfiling || budget_ != nullptr ||
         telemetry::FlightRecorder::Global().configured() || SiteHeapStats::Global().enabled();
}

FaultResolution PkruSafeRuntime::OnMpkFault(const MpkFault& fault) {
  // The signal engine records events for natively-enforcing backends (it
  // also times the single-step); record here only for software-checked
  // backends so a fault never shows up twice in the trace.
  const bool native = backend_->enforces_natively();
  if (mode_ != RuntimeMode::kProfiling) {
    // Always-on sampled profiling: candidate sites record-and-continue
    // instead of dying; everything else falls through to the denial below.
    if (budget_ != nullptr && mode_ == RuntimeMode::kEnforcing) {
      const FaultResolution resolution = OnSampledEnforcingFault(fault);
      if (resolution != FaultResolution::kDeny) {
        if (!native) {
          telemetry::RecordEvent(telemetry::TraceEventType::kFaultServiced,
                                 static_cast<uint8_t>(fault.kind), fault.address, fault.key);
        }
        return resolution;
      }
    }
    DeniedFaultCounter()->Increment();
    if (!native) {
      telemetry::RecordEvent(telemetry::TraceEventType::kFaultDenied,
                             static_cast<uint8_t>(fault.kind), fault.address, fault.key);
    }
    return FaultResolution::kDeny;
  }
  ProfiledFaultCounter()->Increment();
  if (!native) {
    telemetry::RecordEvent(telemetry::TraceEventType::kFaultServiced,
                           static_cast<uint8_t>(fault.kind), fault.address, fault.key);
  }
  // Permissive profiling (§4.3.2): attribute the fault to the allocation
  // site owning the address, record it once per site, and let the access
  // complete via single-stepping. Faults that hit trusted memory not backed
  // by a tracked object (e.g. allocator metadata) are stepped past without a
  // profile entry — there is no allocation site to move. Everything on this
  // path must be async-signal-safe: native backends call it from SIGSEGV.
  ProvenanceTracker::Record record;
  bool found = false;
  if (!provenance_.LookupForSignal(fault.address, &found, &record) || !found) {
    UnattributedFaultCounter()->Increment();
    return FaultResolution::kRetryAllowed;
  }
  recorder_.RecordFault(record.id);
  if (!latch_sites_) {
    return FaultResolution::kRetryAllowed;
  }
  // First-fault latching: once the (site, page) pair is recorded, downgrade
  // the page to the shared key so the site stops paying a signal round-trip
  // per access.
  if (!LatchCoveredPage(PageDown(fault.address), record, /*window_filter=*/nullptr)) {
    return FaultResolution::kRetryAllowed;
  }
  LatchedFaultCounter()->Increment();
  return FaultResolution::kRetryAndLatch;
}

bool PkruSafeRuntime::LatchCoveredPage(
    uintptr_t fault_page, const ProvenanceTracker::Record& record,
    const std::unordered_set<AllocId, AllocIdHasher>* window_filter) {
  // Only pages FULLY covered by the faulting object may latch — a page
  // shared with a neighboring object must keep faulting, or that neighbor's
  // site could go unrecorded (in profiling, the latched profile's site set
  // would diverge from the unlatched one; in sampling, the neighbor could
  // slip past the candidate check).
  const uintptr_t covered_lo = PageUp(record.base);
  const uintptr_t covered_hi = PageDown(record.base + record.size);
  if (fault_page < covered_lo || fault_page + kPageSize > covered_hi) {
    return false;
  }
  // Backends whose single-step window is process-wide (mprotect re-opens the
  // page for every thread; hardware page tags are global) let concurrent
  // accesses to the window slip through unrecorded. The page is about to stop
  // faulting forever, so re-check the window now and re-record any co-located
  // tracked sites that would otherwise be missed.
  if (backend_->has_process_wide_step_window()) {
    constexpr int kMaxWindowRecords = 16;
    ProvenanceTracker::Record window[kMaxWindowRecords];
    const int n = provenance_.RecordsInRangeForSignal(fault_page, fault_page + 2 * kPageSize,
                                                      window, kMaxWindowRecords);
    for (int i = 0; i < n; ++i) {
      if (window[i].id == record.id ||
          (window_filter != nullptr && window_filter->find(window[i].id) == window_filter->end())) {
        continue;
      }
      recorder_.RecordFault(window[i].id);
      StepWindowMissCounter()->Increment();
    }
  }
  backend_->NoteLatchedRange(fault_page, fault_page + kPageSize);
  return true;
}

FaultResolution PkruSafeRuntime::OnSampledEnforcingFault(const MpkFault& fault) {
  // Async-signal-safe throughout: native backends call this from SIGSEGV.
  // sampling_candidates_ is immutable after construction, so the read-only
  // hash probe below is safe from signal context.
  SampledFaultCounter()->Increment();
  ProvenanceTracker::Record record;
  bool found = false;
  if (!provenance_.LookupForSignal(fault.address, &found, &record) || !found) {
    // Unattributed (allocator metadata, non-candidate M_T data) or the
    // provenance lock was contended: enforcement bias — deny. A candidate
    // site can lose at most this one access to lock contention; the next
    // fault re-attributes.
    SampledDeniedStaticCounter()->Increment();
    return FaultResolution::kDeny;
  }
  if (sampling_candidates_.find(record.id) == sampling_candidates_.end()) {
    // Outside the static points-to envelope: sampling never weakens
    // enforcement beyond what the analysis proved may flow to U.
    SampledDeniedStaticCounter()->Increment();
    return FaultResolution::kDeny;
  }
  recorder_.RecordFault(record.id);
  SampledRecordedCounter()->Increment();

  const uintptr_t fault_page = PageDown(fault.address);
  // Every serviced fault spends budget, whether or not the page is in the
  // sampled fraction — the ceiling bounds total fault-service time, not just
  // the observable share.
  const bool in_sample = budget_->SamplesPage(fault_page);
  const bool within_budget = budget_->Admit();
  if (in_sample && within_budget) {
    // The page stays trap-on-touch: this is the always-on observation the
    // delta stream is built from.
    SampledTrappingCounter()->Increment();
    return FaultResolution::kRetryAllowed;
  }
  // Out of the sample (or over budget): open the page so it stops costing a
  // signal round-trip, if the faulting object fully covers it. Window re-records
  // stay inside the candidate set.
  if (!LatchCoveredPage(fault_page, record, &sampling_candidates_)) {
    return FaultResolution::kRetryAllowed;
  }
  (in_sample ? SampledAutolatchedCounter() : SampledLatchedCounter())->Increment();
  return FaultResolution::kRetryAndLatch;
}

PkruSafeRuntime::PromotionResult PkruSafeRuntime::ApplyPromotions(
    const std::vector<AllocId>& sites) {
  PromotionResult result;
  if (sites.empty()) {
    return result;
  }
  std::vector<AllocId> fresh;
  {
    std::lock_guard lock(policy_mutex_);
    const SitePolicy* current = policy_.load(std::memory_order_acquire);
    auto next = std::make_unique<SitePolicy>(*current);
    for (const AllocId id : sites) {
      if (next->IsShared(id)) {
        ++result.already_shared;
        continue;
      }
      next->MarkShared(id);
      fresh.push_back(id);
      ++result.promoted;
    }
    if (!fresh.empty()) {
      policies_.push_back(std::move(next));
      policy_.store(policies_.back().get(), std::memory_order_release);
    }
  }
  // New allocations at the promoted sites now land in M_U. Live objects are
  // still in M_T pages: downgrade every page one of them fully covers, so
  // in-flight data stops faulting without a restart. Partially-covered pages
  // stay enforced (they may host unpromoted neighbors) — accesses there keep
  // going through the sampled fault path, which the candidate check admits.
  for (const AllocId id : fresh) {
    for (const ProvenanceTracker::Record& record : provenance_.RecordsForSite(id)) {
      const uintptr_t lo = PageUp(record.base);
      const uintptr_t hi = PageDown(record.base + record.size);
      if (lo >= hi) {
        continue;
      }
      backend_->NoteLatchedRange(lo, hi);
      result.pages_opened += (hi - lo) / kPageSize;
    }
  }
  return result;
}

PkruSafeRuntime::DemotionResult PkruSafeRuntime::ApplyDemotions(
    const std::vector<AllocId>& sites) {
  DemotionResult result;
  if (sites.empty()) {
    return result;
  }
  std::vector<AllocId> fresh;
  {
    std::lock_guard lock(policy_mutex_);
    const SitePolicy* current = policy_.load(std::memory_order_acquire);
    auto next = std::make_unique<SitePolicy>(*current);
    for (const AllocId id : sites) {
      // The baseline guard: the profile the build was partitioned with says
      // this site flows to U — a fleet-observed cold streak must not
      // contradict it (the fleet may simply not have exercised the path).
      if (baseline_shared_.contains(id)) {
        ++result.baseline_kept;
        continue;
      }
      if (!next->IsShared(id)) {
        ++result.not_shared;
        continue;
      }
      next->UnmarkShared(id);
      fresh.push_back(id);
      ++result.demoted;
    }
    if (!fresh.empty()) {
      policies_.push_back(std::move(next));
      policy_.store(policies_.back().get(), std::memory_order_release);
    }
  }
  // New allocations at the demoted sites land in M_T from here on. Pages the
  // promotion had latched open for live objects go back to trap-on-touch, so
  // a site that turns hot again is observed (and can re-promote) instead of
  // silently riding stale latches. Unlatching a page another (still-shared)
  // site's object also fully covers would close it too — but promotion only
  // latches fully-covered pages, so a fully-covered page has exactly one
  // owning object.
  for (const AllocId id : fresh) {
    for (const ProvenanceTracker::Record& record : provenance_.RecordsForSite(id)) {
      const uintptr_t lo = PageUp(record.base);
      const uintptr_t hi = PageDown(record.base + record.size);
      if (lo >= hi) {
        continue;
      }
      backend_->UnlatchRange(lo, hi);
      result.pages_closed += (hi - lo) / kPageSize;
    }
  }
  return result;
}

void* PkruSafeRuntime::AllocTrusted(AllocId site, size_t size) {
  {
    std::lock_guard lock(sites_mutex_);
    sites_seen_.insert(site);
  }
  Domain domain = Domain::kTrusted;
  if (mode_ == RuntimeMode::kEnforcing) {
    domain = policy_.load(std::memory_order_acquire)->DomainFor(site);
  }
  void* ptr = allocator_->Allocate(domain, size);
  if (ptr == nullptr) {
    return nullptr;
  }
  RecordAllocEvent(domain, size, &site);
  if (TracksProvenance()) {
    const size_t usable = allocator_->UsableSize(ptr);
    const Status status = provenance_.OnAlloc(ptr, usable, site);
    PS_CHECK(status.ok()) << "provenance registration failed: " << status.ToString();
    provenance_active_.store(true, std::memory_order_relaxed);
    SiteHeapStats& site_stats = SiteHeapStats::Global();
    if (site_stats.enabled()) {
      site_stats.NoteAlloc(site,
                           domain == Domain::kUntrusted ? SiteHeapStats::kUntrusted
                                                        : SiteHeapStats::kTrusted,
                           usable);
    }
  }
  return ptr;
}

void* PkruSafeRuntime::AllocUntrusted(size_t size) {
  void* ptr = allocator_->Allocate(Domain::kUntrusted, size);
  if (ptr != nullptr) {
    RecordAllocEvent(Domain::kUntrusted, size, nullptr);
  }
  return ptr;
}

void* PkruSafeRuntime::AllocUntrusted(AllocId site, size_t size) {
  {
    std::lock_guard lock(sites_mutex_);
    sites_seen_.insert(site);
  }
  void* ptr = allocator_->Allocate(Domain::kUntrusted, size);
  if (ptr == nullptr) {
    return nullptr;
  }
  RecordAllocEvent(Domain::kUntrusted, size, &site);
  if (TracksProvenance()) {
    const size_t usable = allocator_->UsableSize(ptr);
    const Status status = provenance_.OnAlloc(ptr, usable, site);
    PS_CHECK(status.ok()) << "provenance registration failed: " << status.ToString();
    provenance_active_.store(true, std::memory_order_relaxed);
    SiteHeapStats& site_stats = SiteHeapStats::Global();
    if (site_stats.enabled()) {
      site_stats.NoteAlloc(site, SiteHeapStats::kUntrusted, usable);
    }
  }
  return ptr;
}

void* PkruSafeRuntime::Realloc(void* ptr, size_t new_size) {
  if (ptr == nullptr) {
    return allocator_->Allocate(Domain::kTrusted, new_size);
  }
  const auto old_record = provenance_active_.load(std::memory_order_relaxed)
                              ? provenance_.Lookup(reinterpret_cast<uintptr_t>(ptr))
                              : std::nullopt;
  void* fresh = allocator_->Reallocate(Domain::kTrusted, ptr, new_size);
  if (fresh != nullptr) {
    telemetry::RecordEvent(telemetry::TraceEventType::kRealloc, 0, new_size);
  }
  if (fresh != nullptr && old_record.has_value()) {
    const size_t usable = allocator_->UsableSize(fresh);
    const Status status = provenance_.OnRealloc(ptr, fresh, usable);
    PS_CHECK(status.ok()) << "provenance realloc failed: " << status.ToString();
    SiteHeapStats& site_stats = SiteHeapStats::Global();
    if (site_stats.enabled()) {
      // Pool (and thus domain) never changes across realloc.
      const auto owner = allocator_->OwnerOf(fresh);
      const int domain = owner.has_value() && *owner == Domain::kUntrusted
                             ? SiteHeapStats::kUntrusted
                             : SiteHeapStats::kTrusted;
      site_stats.NoteFree(old_record->id, domain, old_record->size);
      site_stats.NoteAlloc(old_record->id, domain, usable);
    }
  }
  return fresh;
}

void PkruSafeRuntime::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  telemetry::RecordEvent(telemetry::TraceEventType::kFree, 0,
                         reinterpret_cast<uintptr_t>(ptr));
  // provenance_active_ latches once any registration happened, so records
  // are balanced even when profiling/forensics is toggled off mid-run.
  if (provenance_active_.load(std::memory_order_relaxed)) {
    const auto record = provenance_.Lookup(reinterpret_cast<uintptr_t>(ptr));
    // Untracked pointers (M_U allocations, pre-tracking objects) are fine.
    if (record.has_value()) {
      (void)provenance_.OnFree(ptr);
      SiteHeapStats& site_stats = SiteHeapStats::Global();
      if (site_stats.enabled()) {
        const auto owner = allocator_->OwnerOf(ptr);
        const int domain = owner.has_value() && *owner == Domain::kUntrusted
                               ? SiteHeapStats::kUntrusted
                               : SiteHeapStats::kTrusted;
        site_stats.NoteFree(record->id, domain, record->size);
      }
    }
  }
  allocator_->Free(ptr);
}

RuntimeStats PkruSafeRuntime::stats() const {
  RuntimeStats stats;
  stats.transitions_to_untrusted = gates_->transitions_to_untrusted();
  stats.transitions_to_trusted = gates_->transitions_to_trusted();
  stats.transitions = stats.transitions_to_untrusted + stats.transitions_to_trusted;
  stats.profile_faults = recorder_.total_faults();
  stats.latched_faults = LatchedFaultCounter()->value();
  stats.step_window_misses = StepWindowMissCounter()->value();
  stats.sampled_faults = SampledFaultCounter()->value();
  stats.sampled_recorded = SampledRecordedCounter()->value();
  stats.sampled_trapping = SampledTrappingCounter()->value();
  stats.sampled_latched = SampledLatchedCounter()->value();
  stats.sampled_autolatched = SampledAutolatchedCounter()->value();
  stats.sampled_denied_static = SampledDeniedStaticCounter()->value();
  {
    std::lock_guard lock(sites_mutex_);
    stats.sites_seen = sites_seen_.size();
  }
  stats.sites_shared = policy_.load(std::memory_order_acquire)->shared_site_count();
  stats.trusted_bytes = allocator_->trusted_stats().total_bytes;
  stats.untrusted_bytes = allocator_->untrusted_stats().total_bytes;
  return stats;
}

}  // namespace pkrusafe
