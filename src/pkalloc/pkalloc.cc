#include "src/pkalloc/pkalloc.h"

#include <cstring>

#include "src/support/logging.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {

namespace {

// Pool-level traffic counters (process-wide; the per-runtime view comes from
// the runtime.heap.* callback gauges). Always live: two relaxed fetch_adds
// per heap-path allocation, the same order of cost as the heap's own
// bookkeeping; the thread caches publish theirs in batches. alloc_bytes
// counts *usable* bytes, matching HeapStats, so the two telemetry views of
// the same traffic agree.
struct AllocMetrics {
  TrafficCounters trusted;
  TrafficCounters untrusted;
  telemetry::Histogram* alloc_ns;  // observed only while tracing is enabled
};

const AllocMetrics& Metrics() {
  static const AllocMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    AllocMetrics m;
    m.trusted.alloc_calls = registry.GetOrCreateCounter("pkalloc.trusted.alloc_calls");
    m.trusted.alloc_bytes = registry.GetOrCreateCounter("pkalloc.trusted.alloc_bytes");
    m.trusted.free_calls = registry.GetOrCreateCounter("pkalloc.trusted.free_calls");
    m.untrusted.alloc_calls = registry.GetOrCreateCounter("pkalloc.untrusted.alloc_calls");
    m.untrusted.alloc_bytes = registry.GetOrCreateCounter("pkalloc.untrusted.alloc_bytes");
    m.untrusted.free_calls = registry.GetOrCreateCounter("pkalloc.untrusted.free_calls");
    m.alloc_ns = registry.GetOrCreateHistogram(
        "pkalloc.alloc_ns", telemetry::Histogram::ExponentialBounds(16, 2.0, 16));
    return m;
  }();
  return metrics;
}

const TrafficCounters& MetricsFor(Domain domain) {
  return domain == Domain::kTrusted ? Metrics().trusted : Metrics().untrusted;
}

}  // namespace

PkAllocator::PkAllocator(MpkBackend* backend, std::unique_ptr<Arena> trusted_arena,
                         std::unique_ptr<Arena> untrusted_arena, PkeyId key,
                         const PkAllocatorConfig& config)
    : backend_(backend),
      trusted_arena_(std::move(trusted_arena)),
      untrusted_arena_(std::move(untrusted_arena)),
      trusted_key_(key) {
  trusted_heap_ = std::make_unique<FreeListHeap>(trusted_arena_.get());
  if (config.fast_untrusted_heap) {
    fast_untrusted_heap_ = std::make_unique<FreeListHeap>(untrusted_arena_.get());
  } else {
    untrusted_heap_ = std::make_unique<BoundaryTagHeap>(untrusted_arena_.get());
  }
  central_[0] = std::make_unique<CentralFreeListSet>(trusted_arena_.get(), Metrics().trusted);
  central_[1] = std::make_unique<CentralFreeListSet>(untrusted_arena_.get(), Metrics().untrusted);
  tags_[0] = std::make_unique<SiteTagTable>(trusted_arena_.get(), central_[0].get());
  tags_[1] = std::make_unique<SiteTagTable>(untrusted_arena_.get(), central_[1].get());
}

Result<std::unique_ptr<PkAllocator>> PkAllocator::Create(MpkBackend* backend,
                                                         const PkAllocatorConfig& config) {
  if (backend == nullptr) {
    return InvalidArgumentError("null backend");
  }
  auto trusted = Arena::Create(config.trusted_pool_bytes);
  if (!trusted.ok()) {
    return trusted.status();
  }
  auto untrusted = Arena::Create(config.untrusted_pool_bytes);
  if (!untrusted.ok()) {
    return untrusted.status();
  }
  auto key = backend->AllocateKey();
  if (!key.ok()) {
    return key.status();
  }
  // Tag the whole trusted reservation once: every page the trusted heap will
  // ever use carries the key from the start, so no allocation-time tagging
  // is needed (and no page can be handed out untagged).
  const Status tagged =
      backend->TagRange((*trusted)->base(), (*trusted)->reserved_bytes(), *key);
  if (!tagged.ok()) {
    trusted->reset();  // unmap before the key can be handed out again
    (void)backend->FreeKey(*key);
    return tagged;
  }

  return std::unique_ptr<PkAllocator>(new PkAllocator(
      backend, std::move(*trusted), std::move(*untrusted), *key, config));
}

PkAllocator::~PkAllocator() {
  // Member destruction order (tags, caches, heaps, pools), run early so the
  // pools are unmapped before the key is freed.
  tags_[0].reset();
  tags_[1].reset();
  central_[0].reset();
  central_[1].reset();
  fast_untrusted_heap_.reset();
  untrusted_heap_.reset();
  trusted_heap_.reset();
  untrusted_arena_.reset();
  trusted_arena_.reset();
  (void)backend_->FreeKey(trusted_key_);
}

void* PkAllocator::Allocate(Domain domain, size_t size) {
  if (telemetry::Enabled()) {
    const uint64_t t0 = telemetry::NowNs();
    void* ptr = AllocateInternal(domain, size);
    Metrics().alloc_ns->Observe(telemetry::NowNs() - t0);
    return ptr;
  }
  return AllocateInternal(domain, size);
}

void* PkAllocator::AllocateInternal(Domain domain, size_t size) {
  const int index = DomainIndex(domain);
  if (size <= kMaxSmallSize) {
    // The thread cache does its own (thread-local) telemetry accounting.
    const size_t class_index = SizeClassIndex(size == 0 ? 1 : size);
    return central_[index]->LocalCache().Allocate(class_index);
  }
  void* ptr = AllocateFromPool(domain, size);
  if (ptr != nullptr) {
    const TrafficCounters& pool = MetricsFor(domain);
    pool.alloc_calls->Increment();
    pool.alloc_bytes->Increment(UsableSize(ptr));
  }
  return ptr;
}

void* PkAllocator::AllocateFromPool(Domain domain, size_t size) {
  if (domain == Domain::kTrusted) {
    return trusted_heap_->Allocate(size);
  }
  return fast_untrusted_heap_ != nullptr ? fast_untrusted_heap_->Allocate(size)
                                         : untrusted_heap_->Allocate(size);
}

void* PkAllocator::Reallocate(Domain domain, void* ptr, size_t new_size) {
  if (ptr == nullptr) {
    return Allocate(domain, new_size);
  }
  const auto owner = OwnerOf(ptr);
  PS_CHECK(owner.has_value()) << "Reallocate of foreign pointer";
  const size_t old_usable = UsableSize(ptr);
  if (old_usable >= new_size && new_size > 0) {
    return ptr;  // shrink in place
  }
  // The original pool wins over `domain` (paper §4.2): objects never
  // migrate between pools however the site is classified.
  void* fresh = Allocate(*owner, new_size);
  if (fresh == nullptr) {
    return nullptr;
  }
  std::memcpy(fresh, ptr, std::min(old_usable, new_size));
  // Provenance follows the object across the move (§4.3.1).
  if (const uint32_t tag = FindTagged(reinterpret_cast<uintptr_t>(ptr)).tag; tag != 0) {
    const Status tagged = Tag(fresh, tag);
    PS_CHECK(tagged.ok()) << "site tag of a reallocated block: " << tagged.ToString();
  }
  Free(ptr);
  return fresh;
}

void PkAllocator::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  const auto owner = OwnerOf(ptr);
  PS_CHECK(owner.has_value()) << "Free of foreign pointer";
  const int index = DomainIndex(*owner);
  CentralFreeListSet* central = central_[index].get();
  const uintptr_t chunk_base = ChunkBaseOf(ptr);
  const uint8_t class_index = central->ClassOfChunk(chunk_base);
  tags_[index]->Clear(reinterpret_cast<uintptr_t>(ptr));
  if (class_index != CentralFreeListSet::kNoClass) {
    const size_t block_size = ClassSize(class_index);
    const uintptr_t offset = reinterpret_cast<uintptr_t>(ptr) - chunk_base;
    PS_CHECK_EQ(offset % block_size, 0u) << "Free of interior pointer";
    central->LocalCache().Free(class_index, ptr);
    return;
  }
  MetricsFor(*owner).free_calls->Increment();
  if (*owner == Domain::kTrusted) {
    trusted_heap_->Free(ptr);
  } else if (fast_untrusted_heap_ != nullptr) {
    fast_untrusted_heap_->Free(ptr);
  } else {
    untrusted_heap_->Free(ptr);
  }
}

size_t PkAllocator::UsableSize(const void* ptr) const {
  const auto owner = OwnerOf(ptr);
  PS_CHECK(owner.has_value()) << "UsableSize of foreign pointer";
  const uint8_t class_index = central_[DomainIndex(*owner)]->ClassOfChunk(ChunkBaseOf(ptr));
  if (class_index != CentralFreeListSet::kNoClass) {
    return ClassSize(class_index);
  }
  if (*owner == Domain::kTrusted) {
    return trusted_heap_->UsableSize(ptr);
  }
  return fast_untrusted_heap_ != nullptr ? fast_untrusted_heap_->UsableSize(ptr)
                                         : untrusted_heap_->UsableSize(ptr);
}

std::optional<Domain> PkAllocator::OwnerOf(const void* ptr) const {
  const auto addr = reinterpret_cast<uintptr_t>(ptr);
  if (trusted_arena_->Contains(addr)) {
    return Domain::kTrusted;
  }
  if (untrusted_arena_->Contains(addr)) {
    return Domain::kUntrusted;
  }
  return std::nullopt;
}

Status PkAllocator::Tag(const void* ptr, uint32_t tag) {
  if (tag == 0) {
    return InvalidArgumentError("site tag 0 means untagged");
  }
  const auto owner = OwnerOf(ptr);
  if (!owner.has_value()) {
    return InvalidArgumentError("site tag of a pointer outside both pools");
  }
  const auto addr = reinterpret_cast<uintptr_t>(ptr);
  if (FindTagged(addr).tag != 0) {
    return AlreadyExistsError("block already has a site tag");
  }
  return tags_[DomainIndex(*owner)]->Set(addr, UsableSize(ptr), tag);
}

void PkAllocator::FlushThisThreadCache() {
  for (auto& central : central_) {
    central->LocalCache().FlushAll();
  }
}

HeapStats PkAllocator::StatsFor(int index, HeapStats stats) const {
  const CentralFreeListSet& central = *central_[index];
  const ThreadCache::Counts traffic = central.traffic();
  const uint64_t alloc_bytes = traffic[ThreadCache::kAllocBytes];
  const uint64_t freed_bytes = traffic[ThreadCache::kFreedBytes];
  // A sum racing live threads may see a cross-thread free before the
  // allocation it pairs with; clamp rather than wrap.
  const uint64_t live = alloc_bytes >= freed_bytes ? alloc_bytes - freed_bytes : 0;
  uint64_t peak = peak_live_[index].load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_live_[index].compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  stats.alloc_calls += traffic[ThreadCache::kAllocCalls];
  stats.free_calls += traffic[ThreadCache::kFreeCalls];
  stats.live_bytes += live;
  stats.total_bytes += alloc_bytes;
  stats.peak_bytes += std::max(peak, live);
  stats.spans_released += central.spans_released();
  return stats;
}

HeapStats PkAllocator::trusted_stats() const {
  return StatsFor(0, trusted_heap_->stats());
}

HeapStats PkAllocator::untrusted_stats() const {
  return StatsFor(1, fast_untrusted_heap_ != nullptr ? fast_untrusted_heap_->stats()
                                                     : untrusted_heap_->stats());
}

}  // namespace pkrusafe
