#include "src/server/program_cache.h"

#include <functional>
#include <utility>

#include "src/jsvm/compiler.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace server {

namespace {

struct CacheMetrics {
  telemetry::Counter* hits = nullptr;
  telemetry::Counter* misses = nullptr;
  telemetry::Counter* admitted = nullptr;
  telemetry::Counter* evictions = nullptr;
};

CacheMetrics& Metrics() {
  static CacheMetrics metrics = [] {
    auto& registry = telemetry::MetricsRegistry::Global();
    CacheMetrics m;
    m.hits = registry.GetOrCreateCounter("server.compile_cache.hits");
    m.misses = registry.GetOrCreateCounter("server.compile_cache.misses");
    m.admitted = registry.GetOrCreateCounter("server.compile_cache.admitted");
    m.evictions = registry.GetOrCreateCounter("server.compile_cache.evictions");
    return m;
  }();
  return metrics;
}

size_t Hash(std::string_view source) { return std::hash<std::string_view>{}(source); }

}  // namespace

ProgramCache::ProgramCache(std::vector<std::string> host_names)
    : host_names_(std::move(host_names)) {}

size_t ProgramCache::DoorkeeperSlot(std::string_view source) {
  return Hash(source) % kDoorkeeperSlots;
}

Result<std::shared_ptr<const CompiledProgram>> ProgramCache::Get(std::string_view source) {
  const size_t hash = Hash(source);
  bool admit = false;
  {
    std::lock_guard lock(mu_);
    if (const auto it = index_.find(source); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      Metrics().hits->Increment();
      return it->second->program;
    }
    size_t& seen = doorkeeper_[hash % kDoorkeeperSlots];
    admit = seen == (hash | 1);
    seen = hash | 1;
  }
  Metrics().misses->Increment();

  auto compiled = CompileSource(source, host_names_);
  if (!compiled.ok()) {
    return compiled.status();
  }
  auto program = std::make_shared<const CompiledProgram>(std::move(*compiled));
  if (!admit) {
    return program;
  }

  std::lock_guard lock(mu_);
  if (index_.find(source) != index_.end()) {
    return program;  // another worker's compile of this text got in first
  }
  if (lru_.size() == kCapacity) {
    index_.erase(lru_.back().text);
    lru_.pop_back();
    Metrics().evictions->Increment();
  }
  lru_.push_front(Entry{std::string(source), program});
  index_.emplace(lru_.front().text, lru_.begin());
  Metrics().admitted->Increment();
  return program;
}

size_t ProgramCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace server
}  // namespace pkrusafe
