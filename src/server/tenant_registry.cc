#include "src/server/tenant_registry.h"

#include <cstring>
#include <utility>

namespace pkrusafe {
namespace server {

TenantRegistry::TenantRegistry(MultiCompartment* mc, TenantRegistryOptions options)
    : mc_(mc), options_(options) {}

Result<TenantSession*> TenantRegistry::GetOrCreate(const std::string& name, uint64_t now_ms) {
  std::lock_guard lock(mu_);
  auto it = sessions_.find(name);
  if (it != sessions_.end() && it->second != nullptr) {
    TenantSession* session = it->second.get();
    if (session->dead) {
      return FailedPreconditionError("tenant '" + name +
                                     "' was killed by an enforcement violation");
    }
    session->last_active_ms = now_ms;
    session->in_flight.fetch_add(1, std::memory_order_relaxed);
    return session;
  }

  PS_ASSIGN_OR_RETURN(const LibraryId library, mc_->RegisterLibrary(name));
  auto session = std::make_unique<TenantSession>();
  session->name = name;
  session->library = library;
  session->last_active_ms = now_ms;
  session->scratch = mc_->AllocateIn(library, kScratchBytes);
  if (session->scratch == nullptr) {
    // Roll the registration back: the library was never entered (no pins),
    // so release cannot refuse. Without this every failed creation burned
    // a virtual key and a pool reservation — the exact leak class
    // ReleaseLibrary exists to close.
    (void)mc_->ReleaseLibrary(library);
    return ResourceExhaustedError("tenant '" + name + "': private pool exhausted");
  }
  session->scratch_bytes = kScratchBytes;
  TenantSession* raw = session.get();
  raw->in_flight.fetch_add(1, std::memory_order_relaxed);
  sessions_[name] = std::move(session);
  ++stats_.created;
  return raw;
}

void TenantRegistry::Kill(TenantSession* session) {
  std::lock_guard lock(mu_);
  // The caller's in_flight slot keeps the session un-swept, so the pointer
  // is live and is by construction the session the violating request ran in
  // — never a successor that reused the name.
  if (session == nullptr || session->dead) {
    return;
  }
  session->dead = true;
  ++stats_.killed;
}

bool TenantRegistry::ReleaseLocked(TenantSession& session) {
  const Status released = mc_->ReleaseLibrary(session.library);
  if (!released.ok()) {
    // Pinned by an in-flight request: keep the session and retry next sweep.
    ++stats_.release_retries;
    return false;
  }
  // The scratch lived in the released pool — the pages are gone wholesale.
  ++stats_.released;
  return true;
}

size_t TenantRegistry::SweepIdle(uint64_t now_ms) {
  std::lock_guard lock(mu_);
  size_t released = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    TenantSession* session = it->second.get();
    const bool idle = options_.idle_timeout_ms > 0 &&
                      now_ms >= session->last_active_ms + options_.idle_timeout_ms;
    const bool in_flight = session->in_flight.load(std::memory_order_acquire) > 0;
    if (!in_flight && (session->dead || idle) && ReleaseLocked(*session)) {
      // in_flight == 0 (acquire) under mu_ means no worker holds the pointer
      // and none can reacquire it (GetOrCreate runs under mu_ too), so the
      // session is destroyed here — churn leaves nothing behind.
      it = sessions_.erase(it);
      ++released;
    } else {
      ++it;
    }
  }
  return released;
}

void TenantRegistry::WarmTenants(const std::vector<std::string>& names) {
  std::vector<LibraryId> working_set;
  {
    std::lock_guard lock(mu_);
    working_set.reserve(names.size());
    for (const std::string& name : names) {
      const auto it = sessions_.find(name);
      if (it != sessions_.end() && it->second != nullptr && !it->second->dead) {
        working_set.push_back(it->second->library);
      }
    }
  }
  if (!working_set.empty()) {
    // Hints are best-effort: an id released in between is skipped by
    // PrefaultWorkingSet itself (or, once reused, warms its new holder), and
    // errors never fail a request.
    (void)mc_->PrefaultWorkingSet(working_set);
  }
}

size_t TenantRegistry::live_sessions() const {
  std::lock_guard lock(mu_);
  return sessions_.size();
}

TenantRegistry::Stats TenantRegistry::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace server
}  // namespace pkrusafe
