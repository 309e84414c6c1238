#include "src/runtime/runtime.h"

#include <algorithm>

#include "src/memmap/page.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

// --- Flight-recorder resolver thunks (async-signal-safe) -------------------
// The recorder lives below the mpk/runtime layers; these C-style callbacks
// give it crash-time access to the page-key map and the allocator's site
// tags without a layering inversion.

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

uint32_t CrashPkruReader(void* ctx) {
  return static_cast<const MpkBackend*>(ctx)->ReadPkru().raw();
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

// Profiling faults that hit trusted memory with no tracked allocation:
// stepped past without a profile entry. Replaces the old PS_LOG(Warning) on
// this path, which allocated and locked from signal context.
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
      site_stats_(config.site_stats),
      backend_(std::move(backend)),
      allocator_(std::move(allocator)) {
  if (config.sampled_profiling && mode_ == RuntimeMode::kEnforcing) {
    budget_ = std::make_unique<FaultRateBudget>(config.sampling);
  }
  gates_ = std::make_unique<GateSet>(backend_.get(), allocator_->trusted_key());
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
    return static_cast<int64_t>(TotalFaults());
  });
  registry.SetCallbackGauge("runtime.sites_seen", this, [this] {
    return static_cast<int64_t>(CountSites(SiteRecord::kAllocated));
  });
  registry.SetCallbackGauge("runtime.sites_shared", this, [this] {
    return static_cast<int64_t>(CountSites(SiteRecord::kShared));
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
  // site tags and the thread PKRU from signal context.
  auto& recorder = telemetry::FlightRecorder::Global();
  recorder.SetBackendName(backend_->name().data());
  recorder.SetRangeResolver(&CrashRangeResolver, backend_.get());
  recorder.SetProvenanceResolver(&ResolveCrashProvenance, this);
  recorder.SetPkruReader(&CrashPkruReader, backend_.get());
}

Result<std::unique_ptr<PkruSafeRuntime>> PkruSafeRuntime::Create(RuntimeConfig config) {
  PS_ASSIGN_OR_RETURN(std::unique_ptr<MpkBackend> backend, CreateMpkBackend(config.backend));
  PS_ASSIGN_OR_RETURN(std::unique_ptr<PkAllocator> allocator,
                      PkAllocator::Create(backend.get(), config.allocator));
  const SitePolicy policy = std::move(config.policy);
  const auto candidates = std::move(config.sampling_candidates);

  auto runtime = std::unique_ptr<PkruSafeRuntime>(
      new PkruSafeRuntime(std::move(config), std::move(backend), std::move(allocator)));

  // Every site the configuration names gets its record up front: the loaded
  // policy's sites are shared for good, the candidates may fault-and-record.
  auto mark = [&runtime](const auto& sites, uint8_t flags) -> Status {
    std::lock_guard lock(runtime->sites_mutex_);
    for (const AllocId id : sites) {
      const uint32_t tag = runtime->FindOrAddSiteLocked(id);
      if (tag == 0) {
        return ResourceExhaustedError(StrFormat("more than %zu configured allocation sites",
                                                runtime->sites_.capacity()));
      }
      runtime->RecordOf(tag).flags.fetch_or(flags, std::memory_order_release);
    }
    return Status::Ok();
  };
  PS_RETURN_IF_ERROR(mark(policy.SharedSites(), SiteRecord::kShared | SiteRecord::kBaseline));
  PS_RETURN_IF_ERROR(mark(candidates, SiteRecord::kCandidate));

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
  recorder.ClearResolversFor(this);
  telemetry::MetricsRegistry::Global().RemoveCallbackGauges(this);
}

void PkruSafeRuntime::ResolveCrashProvenance(void* ctx, uint64_t addr,
                                             telemetry::CrashProvenance* out) {
  const auto* runtime = static_cast<const PkruSafeRuntime*>(ctx);
  const TaggedBlock block = runtime->allocator_->FindTagged(static_cast<uintptr_t>(addr));
  out->found = block.tag != 0;
  if (!out->found) {
    return;
  }
  const AllocId id = runtime->SiteOfTag(block.tag);
  out->base = block.base;
  out->size = block.size;
  out->function_id = id.function_id;
  out->block_id = id.block_id;
  out->site_id = id.site_id;
}

bool PkruSafeRuntime::TracksProvenance() const {
  // Sampled profiling needs pointer→site attribution in enforce mode: both
  // the fault handler (candidate check) and ApplyPromotions (live pages of a
  // promoted site) resolve through the site tags.
  return mode_ == RuntimeMode::kProfiling || budget_ != nullptr ||
         telemetry::FlightRecorder::Global().configured() || site_stats_;
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
  const TaggedBlock block = allocator_->FindTagged(fault.address);
  if (block.tag == 0) {
    UnattributedFaultCounter()->Increment();
    return FaultResolution::kRetryAllowed;
  }
  RecordOf(block.tag).faults.fetch_add(1, std::memory_order_relaxed);
  if (!latch_sites_) {
    return FaultResolution::kRetryAllowed;
  }
  // First-fault latching: once the (site, page) pair is recorded, downgrade
  // the page to the shared key so the site stops paying a signal round-trip
  // per access.
  if (!LatchCoveredPage(PageDown(fault.address), block, /*candidates_only=*/false)) {
    return FaultResolution::kRetryAllowed;
  }
  LatchedFaultCounter()->Increment();
  return FaultResolution::kRetryAndLatch;
}

bool PkruSafeRuntime::LatchCoveredPage(uintptr_t fault_page, const TaggedBlock& block,
                                       bool candidates_only) {
  // Only pages FULLY covered by the faulting object may latch — a page
  // shared with a neighboring object must keep faulting, or that neighbor's
  // site could go unrecorded (in profiling, the latched profile's site set
  // would diverge from the unlatched one; in sampling, the neighbor could
  // slip past the candidate check).
  const uintptr_t covered_lo = PageUp(block.base);
  const uintptr_t covered_hi = PageDown(block.base + block.size);
  if (fault_page < covered_lo || fault_page + kPageSize > covered_hi) {
    return false;
  }
  // On the native backends the single-step window is process-wide (mprotect
  // re-opens the page for every thread; hardware page tags are global), so
  // concurrent accesses to the window slip through unrecorded. The page is
  // about to stop faulting forever, so re-check the window now and re-record
  // any co-located tracked sites that would otherwise be missed.
  if (backend_->enforces_natively()) {
    constexpr int kMaxWindowBlocks = 16;
    int visited = 0;
    allocator_->ForEachTaggedIn(
        fault_page, fault_page + 2 * kPageSize, [&](const TaggedBlock& other) {
          SiteRecord& record = RecordOf(other.tag);
          if (other.tag != block.tag &&
              (!candidates_only || record.Has(SiteRecord::kCandidate))) {
            record.faults.fetch_add(1, std::memory_order_relaxed);
            StepWindowMissCounter()->Increment();
          }
          return ++visited < kMaxWindowBlocks;
        });
  }
  backend_->NoteLatchedRange(fault_page, fault_page + kPageSize);
  return true;
}

FaultResolution PkruSafeRuntime::OnSampledEnforcingFault(const MpkFault& fault) {
  // Async-signal-safe throughout: native backends call this from SIGSEGV.
  // The candidate bits are fixed at Create.
  SampledFaultCounter()->Increment();
  const TaggedBlock block = allocator_->FindTagged(fault.address);
  if (block.tag == 0) {
    // Unattributed (allocator metadata, untagged M_T data): enforcement
    // bias — deny.
    SampledDeniedStaticCounter()->Increment();
    return FaultResolution::kDeny;
  }
  SiteRecord& record = RecordOf(block.tag);
  if (!record.Has(SiteRecord::kCandidate)) {
    // Outside the static points-to envelope: sampling never weakens
    // enforcement beyond what the analysis proved may flow to U.
    SampledDeniedStaticCounter()->Increment();
    return FaultResolution::kDeny;
  }
  record.faults.fetch_add(1, std::memory_order_relaxed);
  SampledRecordedCounter()->Increment();

  const uintptr_t fault_page = PageDown(fault.address);
  // Every serviced fault spends budget, whether or not the page is in the
  // sampled fraction — the ceiling bounds total fault-service time, not just
  // the observable share. Pages are sampled by their offset from the trusted
  // pool's first whole chunk, so the same pages sample wherever ASLR maps
  // the pool.
  const uintptr_t pool_origin =
      RoundUp(allocator_->trusted_arena().base(), kArenaChunkGranularity);
  const bool in_sample = budget_->SamplesPage(fault_page - pool_origin);
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
  if (!LatchCoveredPage(fault_page, block, /*candidates_only=*/true)) {
    return FaultResolution::kRetryAllowed;
  }
  (in_sample ? SampledAutolatchedCounter() : SampledLatchedCounter())->Increment();
  return FaultResolution::kRetryAndLatch;
}

size_t PkruSafeRuntime::UpdateCoveredPages(const std::vector<AllocId>& sites,
                                           void (MpkBackend::*update)(uintptr_t, uintptr_t)) {
  size_t pages = 0;
  if (sites.empty()) {
    return pages;
  }
  allocator_->ForEachTagged([&](const TaggedBlock& block) {
    const uintptr_t lo = PageUp(block.base);
    const uintptr_t hi = PageDown(block.base + block.size);
    if (lo < hi && std::find(sites.begin(), sites.end(), SiteOfTag(block.tag)) != sites.end()) {
      (backend_.get()->*update)(lo, hi);
      pages += (hi - lo) / kPageSize;
    }
    return true;
  });
  return pages;
}

PkruSafeRuntime::PromotionResult PkruSafeRuntime::ApplyPromotions(
    const std::vector<AllocId>& sites) {
  PromotionResult result;
  std::vector<AllocId> fresh;
  {
    std::lock_guard lock(sites_mutex_);
    for (const AllocId id : sites) {
      const uint32_t tag = FindOrAddSiteLocked(id);
      if (tag == 0) {
        ++result.refused;
        continue;
      }
      SiteRecord& record = RecordOf(tag);
      if (record.Has(SiteRecord::kShared)) {
        ++result.already_shared;
        continue;
      }
      record.flags.fetch_or(SiteRecord::kShared, std::memory_order_release);
      ++result.promoted;
      fresh.push_back(id);
    }
  }
  // New allocations at the promoted sites now land in M_U. Live objects are
  // still in M_T pages: downgrade every page one of them fully covers, so
  // in-flight data stops faulting without a restart. Partially-covered pages
  // stay enforced (they may host unpromoted neighbors) — accesses there keep
  // going through the sampled fault path, which the candidate check admits.
  result.pages_opened = UpdateCoveredPages(fresh, &MpkBackend::NoteLatchedRange);
  return result;
}

PkruSafeRuntime::DemotionResult PkruSafeRuntime::ApplyDemotions(
    const std::vector<AllocId>& sites) {
  DemotionResult result;
  std::vector<AllocId> fresh;
  {
    std::lock_guard lock(sites_mutex_);
    for (const AllocId id : sites) {
      const auto it = site_tags_.find(id);
      SiteRecord* record = it == site_tags_.end() ? nullptr : &RecordOf(it->second);
      // The baseline guard: the profile the build was partitioned with says
      // this site flows to U — a fleet-observed cold streak must not
      // contradict it (the fleet may simply not have exercised the path).
      if (record != nullptr && record->Has(SiteRecord::kBaseline)) {
        ++result.baseline_kept;
        continue;
      }
      if (record == nullptr || !record->Has(SiteRecord::kShared)) {
        ++result.not_shared;
        continue;
      }
      record->flags.fetch_and(static_cast<uint8_t>(~SiteRecord::kShared),
                              std::memory_order_release);
      ++result.demoted;
      fresh.push_back(id);
    }
  }
  // New allocations at the demoted sites land in M_T from here on. Pages the
  // promotion had latched open for live objects go back to trap-on-touch, so
  // a site that turns hot again is observed (and can re-promote) instead of
  // silently riding stale latches. Unlatching a page another (still-shared)
  // site's object also fully covers would close it too — but promotion only
  // latches fully-covered pages, so a fully-covered page has exactly one
  // owning object.
  result.pages_closed = UpdateCoveredPages(fresh, &MpkBackend::UnlatchRange);
  return result;
}

void* PkruSafeRuntime::AllocTrusted(AllocId site, size_t size) {
  const uint32_t tag = InternSite(site);
  const bool shared =
      mode_ == RuntimeMode::kEnforcing && RecordOf(tag).Has(SiteRecord::kShared);
  return AllocAt(site, tag, shared ? Domain::kUntrusted : Domain::kTrusted, size);
}

void* PkruSafeRuntime::AllocUntrusted(size_t size) {
  void* ptr = allocator_->Allocate(Domain::kUntrusted, size);
  if (ptr != nullptr) {
    RecordAllocEvent(Domain::kUntrusted, size, nullptr);
  }
  return ptr;
}

void* PkruSafeRuntime::AllocUntrusted(AllocId site, size_t size) {
  return AllocAt(site, InternSite(site), Domain::kUntrusted, size);
}

uint32_t PkruSafeRuntime::FindOrAddSiteLocked(AllocId site) {
  const auto [it, inserted] = site_tags_.try_emplace(site, 0);
  if (inserted) {
    SiteRecord* record = sites_.Claim();
    if (record == nullptr) {
      site_tags_.erase(it);
      return 0;
    }
    record->id = site;
    sites_.Publish();
    it->second = static_cast<uint32_t>(sites_.size());
  }
  return it->second;
}

uint32_t PkruSafeRuntime::InternSite(AllocId site) {
  std::lock_guard lock(sites_mutex_);
  const uint32_t tag = FindOrAddSiteLocked(site);
  PS_CHECK(tag != 0) << "more than " << sites_.capacity() << " allocation sites";
  SiteRecord& record = RecordOf(tag);
  if (!record.Has(SiteRecord::kAllocated)) {
    record.flags.fetch_or(SiteRecord::kAllocated, std::memory_order_release);
  }
  return tag;
}

size_t PkruSafeRuntime::CountSites(SiteRecord::Flag flag) const {
  size_t count = 0;
  for (size_t i = 0, n = sites_.size(); i < n; ++i) {
    count += sites_[i].Has(flag) ? 1 : 0;
  }
  return count;
}

uint64_t PkruSafeRuntime::TotalFaults() const {
  uint64_t total = 0;
  for (size_t i = 0, n = sites_.size(); i < n; ++i) {
    total += sites_[i].faults.load(std::memory_order_relaxed);
  }
  return total;
}

Profile PkruSafeRuntime::TakeProfile() const {
  Profile profile;
  for (size_t i = 0, n = sites_.size(); i < n; ++i) {
    const SiteRecord& record = sites_[i];
    const uint64_t faults = record.faults.load(std::memory_order_relaxed);
    if (faults != 0) {
      profile.Add(record.id, faults);
    }
  }
  return profile;
}

bool PkruSafeRuntime::IsShared(AllocId site) const {
  std::lock_guard lock(sites_mutex_);
  const auto it = site_tags_.find(site);
  return it != site_tags_.end() && RecordOf(it->second).Has(SiteRecord::kShared);
}

void* PkruSafeRuntime::AllocAt(AllocId site, uint32_t tag, Domain domain, size_t size) {
  void* ptr = allocator_->Allocate(domain, size);
  if (ptr == nullptr) {
    return nullptr;
  }
  RecordAllocEvent(domain, size, &site);
  if (TracksProvenance()) {
    const Status status = allocator_->Tag(ptr, tag);
    PS_CHECK(status.ok()) << "site tag failed: " << status.ToString();
    if (site_stats_) {
      CountAllocation(tag, domain, allocator_->UsableSize(ptr));
    }
  }
  return ptr;
}

void PkruSafeRuntime::CountAllocation(uint32_t tag, Domain domain, size_t bytes) {
  SiteRecord& record = RecordOf(tag);
  const int d = static_cast<int>(domain);
  record.total_bytes[d].fetch_add(bytes, std::memory_order_relaxed);
  record.total_objects[d].fetch_add(1, std::memory_order_relaxed);
}

void* PkruSafeRuntime::Realloc(void* ptr, size_t new_size) {
  if (ptr == nullptr) {
    return allocator_->Allocate(Domain::kTrusted, new_size);
  }
  void* fresh = allocator_->Reallocate(Domain::kTrusted, ptr, new_size);
  if (fresh == nullptr) {
    return nullptr;
  }
  telemetry::RecordEvent(telemetry::TraceEventType::kRealloc, 0, new_size);
  if (site_stats_) {
    // The allocator carries the site tag to a moved block and keeps it on
    // one shrunk in place; either counts as one allocation of the block.
    const TaggedBlock block = allocator_->FindTagged(reinterpret_cast<uintptr_t>(fresh));
    if (block.tag != 0) {
      CountAllocation(block.tag, *allocator_->OwnerOf(fresh), block.size);
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
  allocator_->Free(ptr);
}

std::vector<SiteTotals> PkruSafeRuntime::SiteHeapTotals() const {
  static_assert(static_cast<int>(Domain::kTrusted) == SiteTotals::kTrusted &&
                static_cast<int>(Domain::kUntrusted) == SiteTotals::kUntrusted);
  if (!site_stats_) {
    return {};
  }
  std::vector<SiteTotals> sites(sites_.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    const SiteRecord& record = sites_[i];
    sites[i].site = record.id;
    for (int d = 0; d < 2; ++d) {
      sites[i].total_bytes[d] = record.total_bytes[d].load(std::memory_order_relaxed);
      sites[i].total_objects[d] = record.total_objects[d].load(std::memory_order_relaxed);
    }
  }
  // The site tags hold every live tagged block as {base, size, tag}; the
  // pool holding a block gives its domain.
  allocator_->ForEachTagged([&](const TaggedBlock& block) {
    if (block.tag <= sites.size()) {  // else its site was interned after the read above
      SiteTotals& totals = sites[block.tag - 1];
      const int d = static_cast<int>(*allocator_->OwnerOf(reinterpret_cast<void*>(block.base)));
      totals.live_bytes[d] += static_cast<int64_t>(block.size);
      ++totals.live_objects[d];
    }
    return true;
  });
  // Sites configured or promoted but never allocated at have no row.
  std::erase_if(sites, [](const SiteTotals& totals) {
    return totals.total_objects[SiteTotals::kTrusted] == 0 &&
           totals.total_objects[SiteTotals::kUntrusted] == 0;
  });
  std::sort(sites.begin(), sites.end(),
            [](const SiteTotals& lhs, const SiteTotals& rhs) { return lhs.site < rhs.site; });
  return sites;
}

RuntimeStats PkruSafeRuntime::stats() const {
  RuntimeStats stats;
  stats.transitions_to_untrusted = gates_->transitions_to_untrusted();
  stats.transitions_to_trusted = gates_->transitions_to_trusted();
  stats.transitions = stats.transitions_to_untrusted + stats.transitions_to_trusted;
  stats.profile_faults = TotalFaults();
  stats.latched_faults = LatchedFaultCounter()->value();
  stats.step_window_misses = StepWindowMissCounter()->value();
  stats.sampled_faults = SampledFaultCounter()->value();
  stats.sampled_recorded = SampledRecordedCounter()->value();
  stats.sampled_trapping = SampledTrappingCounter()->value();
  stats.sampled_latched = SampledLatchedCounter()->value();
  stats.sampled_autolatched = SampledAutolatchedCounter()->value();
  stats.sampled_denied_static = SampledDeniedStaticCounter()->value();
  stats.sites_seen = CountSites(SiteRecord::kAllocated);
  stats.sites_shared = CountSites(SiteRecord::kShared);
  stats.trusted_bytes = allocator_->trusted_stats().total_bytes;
  stats.untrusted_bytes = allocator_->untrusted_stats().total_bytes;
  return stats;
}

}  // namespace pkrusafe
