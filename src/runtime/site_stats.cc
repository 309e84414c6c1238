#include "src/runtime/site_stats.h"

#include <algorithm>

#include "src/support/json.h"

namespace pkrusafe {

namespace {

// Per-thread pending-delta table: open-addressed, fixed size, drained to the
// global table when full or at the op threshold. Mirrors the allocator
// thread cache's deferred traffic accounting.
constexpr size_t kTlsSlots = 64;  // power of two
constexpr uint32_t kFlushOpThreshold = 256;

struct PendingEntry {
  AllocId site;
  int domain = -1;  // -1 = empty slot
  int64_t bytes = 0;
  int64_t objects = 0;
  uint64_t alloc_bytes = 0;
  uint64_t alloc_objects = 0;
};

struct PendingTable {
  PendingEntry slots[kTlsSlots];
  uint32_t ops = 0;
  bool dirty = false;
  ~PendingTable();
};

thread_local PendingTable tls_pending;

size_t SlotIndex(const AllocId& site, int domain) {
  return (AllocIdHasher{}(site) * 31 + static_cast<size_t>(domain)) & (kTlsSlots - 1);
}

}  // namespace

SiteHeapStats& SiteHeapStats::Global() {
  static auto* stats = new SiteHeapStats();
  return *stats;
}

PendingTable::~PendingTable() {
  if (dirty) {
    SiteHeapStats::Global().FlushThisThread();
  }
}

void SiteHeapStats::MergeLocked(const Key& key, const Delta& delta) {
  Delta& slot = table_[key];
  slot.bytes += delta.bytes;
  slot.objects += delta.objects;
  slot.alloc_bytes += delta.alloc_bytes;
  slot.alloc_objects += delta.alloc_objects;
}

void SiteHeapStats::FlushThisThread() {
  PendingTable& pending = tls_pending;
  if (!pending.dirty) {
    return;
  }
  std::lock_guard lock(mutex_);
  for (PendingEntry& entry : pending.slots) {
    if (entry.domain < 0) {
      continue;
    }
    MergeLocked(Key{entry.site, entry.domain},
                Delta{entry.bytes, entry.objects, entry.alloc_bytes, entry.alloc_objects});
    entry.domain = -1;
    entry.bytes = 0;
    entry.objects = 0;
    entry.alloc_bytes = 0;
    entry.alloc_objects = 0;
  }
  pending.ops = 0;
  pending.dirty = false;
}

void SiteHeapStats::Note(AllocId site, int domain, int64_t bytes_delta, int64_t objects_delta) {
  PendingTable& pending = tls_pending;
  const size_t start = SlotIndex(site, domain);
  PendingEntry* entry = nullptr;
  for (size_t probe = 0; probe < kTlsSlots; ++probe) {
    PendingEntry& candidate = pending.slots[(start + probe) & (kTlsSlots - 1)];
    if (candidate.domain < 0) {
      candidate.site = site;
      candidate.domain = domain;
      entry = &candidate;
      break;
    }
    if (candidate.domain == domain && candidate.site == site) {
      entry = &candidate;
      break;
    }
  }
  if (entry == nullptr) {
    // Table full of other sites: drain everything, then claim the home slot.
    pending.dirty = true;
    FlushThisThread();
    entry = &pending.slots[start];
    entry->site = site;
    entry->domain = domain;
  }
  entry->bytes += bytes_delta;
  entry->objects += objects_delta;
  if (bytes_delta > 0) {
    entry->alloc_bytes += static_cast<uint64_t>(bytes_delta);
  }
  if (objects_delta > 0) {
    entry->alloc_objects += static_cast<uint64_t>(objects_delta);
  }
  pending.dirty = true;
  if (++pending.ops >= kFlushOpThreshold) {
    FlushThisThread();
  }
}

void SiteHeapStats::NoteAlloc(AllocId site, int domain, size_t bytes) {
  if (!enabled()) {
    return;
  }
  Note(site, domain, static_cast<int64_t>(bytes), 1);
}

void SiteHeapStats::NoteFree(AllocId site, int domain, size_t bytes) {
  if (!enabled()) {
    return;
  }
  Note(site, domain, -static_cast<int64_t>(bytes), -1);
}

std::vector<SiteHeapStats::SiteTotals> SiteHeapStats::Snapshot() const {
  std::unordered_map<AllocId, SiteTotals, AllocIdHasher> merged;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [key, delta] : table_) {
      SiteTotals& totals = merged[key.site];
      totals.site = key.site;
      const int d = key.domain == kUntrusted ? kUntrusted : kTrusted;
      totals.live_bytes[d] += delta.bytes;
      totals.live_objects[d] += delta.objects;
      totals.total_bytes[d] += delta.alloc_bytes;
      totals.total_objects[d] += delta.alloc_objects;
    }
  }
  std::vector<SiteTotals> out;
  out.reserve(merged.size());
  for (auto& [site, totals] : merged) {
    out.push_back(totals);
  }
  std::sort(out.begin(), out.end(), [](const SiteTotals& lhs, const SiteTotals& rhs) {
    if (lhs.site.function_id != rhs.site.function_id) {
      return lhs.site.function_id < rhs.site.function_id;
    }
    if (lhs.site.block_id != rhs.site.block_id) {
      return lhs.site.block_id < rhs.site.block_id;
    }
    return lhs.site.site_id < rhs.site.site_id;
  });
  return out;
}

std::vector<SiteHeapStats::SiteTotals> SiteHeapStats::TopKByLiveBytes(size_t k, int domain) const {
  std::vector<SiteTotals> all = Snapshot();
  const int d = domain == kUntrusted ? kUntrusted : kTrusted;
  std::stable_sort(all.begin(), all.end(), [d](const SiteTotals& lhs, const SiteTotals& rhs) {
    return lhs.live_bytes[d] > rhs.live_bytes[d];
  });
  if (all.size() > k) {
    all.resize(k);
  }
  return all;
}

std::string SiteStatsToJson(const std::vector<SiteHeapStats::SiteTotals>& sites) {
  std::string out;
  json::Writer w(&out);
  w.BeginObject().Key("kind").String("pkru_safe_site_stats").Key("version").Int(1);
  w.Key("sites").BeginArray();
  for (const SiteHeapStats::SiteTotals& totals : sites) {
    w.BeginObject().Key("id").String(totals.site.ToString());
    static constexpr const char* kDomainNames[2] = {"trusted", "untrusted"};
    for (int d = 0; d < 2; ++d) {
      w.Key(kDomainNames[d]).BeginObject();
      w.Key("live_bytes").Int(totals.live_bytes[d]).Key("live_objects").Int(totals.live_objects[d]);
      w.Key("total_bytes").Uint(totals.total_bytes[d]);
      w.Key("total_objects").Uint(totals.total_objects[d]).EndObject();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

void SiteHeapStats::ResetForTesting() {
  {
    std::lock_guard lock(mutex_);
    table_.clear();
  }
  PendingTable& pending = tls_pending;
  for (PendingEntry& entry : pending.slots) {
    entry.domain = -1;
    entry.bytes = 0;
    entry.objects = 0;
    entry.alloc_bytes = 0;
    entry.alloc_objects = 0;
  }
  pending.ops = 0;
  pending.dirty = false;
}

}  // namespace pkrusafe
