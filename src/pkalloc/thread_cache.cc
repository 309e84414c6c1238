#include "src/pkalloc/thread_cache.h"

#include <algorithm>
#include <vector>

#include "src/support/logging.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {

namespace {

struct CacheMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* flushes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    return CacheMetrics{registry.GetOrCreateCounter("pkalloc.cache.hits"),
                        registry.GetOrCreateCounter("pkalloc.cache.misses"),
                        registry.GetOrCreateCounter("pkalloc.cache.flushes")};
  }();
  return metrics;
}

}  // namespace

thread_local uint64_t ThreadCache::tls_last_id = 0;
thread_local ThreadCache* ThreadCache::tls_last_cache = nullptr;

// TLS registry: one entry per (thread, central set) pair. Entries for dead
// sets are left in place (their ids never recur) and reclaimed at thread
// exit; a thread touches a handful of sets in practice, so the scan is a
// couple of compares.
struct ThreadCache::TlsCaches {
  struct Entry {
    uint64_t id;
    ThreadCache* cache;
  };
  std::vector<Entry> entries;

  ~TlsCaches() {
    for (Entry& entry : entries) {
      entry.cache->Retire();
      delete entry.cache;
    }
    tls_last_id = 0;
    tls_last_cache = nullptr;
  }
};

ThreadCache* ThreadCache::GetSlow(CentralFreeListSet* central) {
  static thread_local TlsCaches tls;
  const uint64_t id = central->id();
  ThreadCache* cache = nullptr;
  for (const auto& entry : tls.entries) {
    if (entry.id == id) {
      cache = entry.cache;
      break;
    }
  }
  if (cache == nullptr) {
    cache = new ThreadCache(central);
    central->RegisterCache(cache);
    tls.entries.push_back({id, cache});
  }
  tls_last_id = id;
  tls_last_cache = cache;
  return cache;
}

void* ThreadCache::AllocateSlow(size_t class_index) {
  if (classes_[class_index].head != nullptr) {
    // kPublishOps hits are pending. Publish them alone, one shared write;
    // the traffic waits for the next batch boundary, since the stats a
    // thread reads already fold in its own pending traffic.
    Metrics().hits->Increment(hits_);
    hits_ = 0;
    return Allocate(class_index);
  }
  ++misses_;
  FreeNode* chain = nullptr;
  const size_t got = central_->FetchBatch(class_index, &chain, BatchSize(class_index));
  if (got == 0) {
    PublishCounters();
    return nullptr;
  }
  ++pending_.alloc_calls;
  pending_.alloc_bytes += ClassSize(class_index);
  PublishCounters();
  ClassCache& cls = classes_[class_index];
  cls.head = chain->next;
  cls.count = static_cast<uint32_t>(got - 1);
  ClearFreeCanary(chain);
  return chain;
}

void ThreadCache::FreeSlow(size_t class_index) {
  ++flushes_;
  FlushBatch(class_index);
  PublishCounters();
}

void ThreadCache::ConfirmNotDoubleFree(size_t class_index, FreeNode* node) {
  // Suspected double free; confirm against the lists that can actually
  // contain this thread's freed blocks before dying.
  for (FreeNode* cur = classes_[class_index].head; cur != nullptr; cur = cur->next) {
    if (cur == node) {
      DieOnDoubleFree(class_index, node);
    }
  }
  if (central_->ContainsFreeBlock(class_index, node)) {
    DieOnDoubleFree(class_index, node);
  }
}

void ThreadCache::DieOnDoubleFree(size_t class_index, void* ptr) {
  PS_CHECK(false) << "double free of small block " << ptr << " (class " << class_index << ")";
  __builtin_unreachable();
}

void ThreadCache::FlushBatch(size_t class_index) {
  ClassCache& cls = classes_[class_index];
  const uint32_t batch = std::min(BatchSize(class_index), cls.count);
  if (batch == 0) {
    return;
  }
  // Detach `batch` nodes from the head (the coldest blocks are at the tail,
  // but splitting at the head keeps this O(batch) with no tail pointer).
  FreeNode* head = cls.head;
  FreeNode* last = head;
  for (uint32_t i = 1; i < batch; ++i) {
    last = last->next;
  }
  cls.head = last->next;
  cls.count -= batch;
  last->next = nullptr;
  central_->ReleaseBatch(class_index, head, batch);
}

void ThreadCache::FlushAll() {
  for (size_t i = 0; i < kNumSizeClasses; ++i) {
    while (classes_[i].head != nullptr) {
      FlushBatch(i);
    }
    classes_[i].count = 0;
  }
  PublishCounters();
}

void ThreadCache::PublishCounters() {
  if (central_ != nullptr &&
      (pending_.alloc_calls | pending_.free_calls | pending_.alloc_bytes |
       pending_.freed_bytes) != 0) {
    central_->PublishTraffic(pending_);
    pending_ = CachedTraffic{};
  }
  if (hits_ == 0 && misses_ == 0 && flushes_ == 0) {
    return;
  }
  const CacheMetrics& m = Metrics();
  m.hits->Increment(hits_);
  m.misses->Increment(misses_);
  m.flushes->Increment(flushes_);
  hits_ = misses_ = flushes_ = 0;
}

void ThreadCache::Invalidate() {
  // The arena behind every cached block is being torn down; just forget
  // them. Telemetry is still safe to publish (global registry).
  PublishCounters();
  classes_.fill(ClassCache{});
  central_ = nullptr;
}

void ThreadCache::Retire() {
  if (central_ == nullptr) {
    return;  // central set died first
  }
  FlushAll();
  central_->UnregisterCache(this);
  central_ = nullptr;
}

}  // namespace pkrusafe
