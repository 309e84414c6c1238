#include "src/pkalloc/thread_cache.h"

#include <algorithm>

#include "src/pkalloc/central_free_list.h"
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

void* ThreadCache::AllocateSlow(size_t class_index) {
  if (classes_[class_index].head != nullptr) {
    // kPublishOps hits are pending. Publish them alone, one shared write;
    // the traffic counters wait for the next batch boundary (the allocator's
    // stats sum this cache's fields directly).
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
  traffic_.Add(kAllocCalls);
  traffic_.Add(kAllocBytes, ClassSize(class_index));
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
  const TrafficCounters& counters = central_->traffic_counters();
  Counts now{};
  AddTo(now);
  if (counters.alloc_calls != nullptr && now != published_) {
    counters.alloc_calls->Increment(now[kAllocCalls] - published_[kAllocCalls]);
    counters.alloc_bytes->Increment(now[kAllocBytes] - published_[kAllocBytes]);
    counters.free_calls->Increment(now[kFreeCalls] - published_[kFreeCalls]);
    published_ = now;
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

}  // namespace pkrusafe
