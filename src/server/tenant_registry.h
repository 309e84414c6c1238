// Tenant lifecycle for the multi-tenant sandbox server.
//
// Each tenant session maps to one MultiCompartment library: a virtual
// protection key plus a private pool. The registry creates the session on a
// tenant's first request, tracks last-activity and request counts, and — on
// a sweep — releases sessions that have gone idle past the timeout (or were
// killed by an enforcement violation) through MultiCompartment's
// ReleaseLibrary, returning the virtual key and the pool's pages. A session
// with a request in flight (or whose key is still pinned) refuses release
// and is retried on the next sweep, so the sweep can run concurrently with
// the worker pool.
//
// Session lifetime: a worker's pointer to a TenantSession is covered by the
// in_flight slot GetOrCreate hands out — the slot is taken under the
// registry lock before the pointer escapes, and the sweep only releases a
// session it observes (acquire) at in_flight == 0 under the same lock, by
// which point every access by the releasing worker happened-before (its
// decrement is a release store after its last touch of the session). So a
// released session has no readers and is destroyed on the spot: tenant
// churn costs no registry memory. MultiCompartment recycles the released
// library (id, pool and heap) for the next session, so its tables stay
// bounded by the peak number of live sessions as well.
//
// The registry also turns tenant names into working-set hints: WarmTenants
// resolves live sessions and pre-faults their virtual keys ahead of a
// request batch (MultiCompartment::PrefaultWorkingSet), so the batch's
// compartment entries take the lock-free resident fast path.
#ifndef SRC_SERVER_TENANT_REGISTRY_H_
#define SRC_SERVER_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/multidomain/multi_compartment.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace server {

struct TenantRegistryOptions {
  // Sessions idle longer than this are released on the next sweep.
  // 0 disables idle eviction (dead tenants are still reaped).
  uint64_t idle_timeout_ms = 30'000;
  // Per-session scratch allocated from the tenant's private pool; requests
  // touch it inside the tenant's compartment so every request exercises the
  // tenant's own key, not just the shared heap. Nonzero values are rounded
  // up to a whole uint64_t word at registry construction (the per-request
  // touch indexes the scratch as words).
  size_t scratch_bytes = 64 * 1024;
};

// One tenant's live session. Owned by the registry; a pointer handed out by
// GetOrCreate stays valid exactly as long as the caller holds the in_flight
// slot that came with it — the sweep never destroys a session with a slot
// outstanding (see the lifetime note above).
struct TenantSession {
  std::string name;
  LibraryId library = 0;
  // Scratch in the tenant's private pool (nullptr once released).
  void* scratch = nullptr;
  size_t scratch_bytes = 0;
  uint64_t last_active_ms = 0;
  std::atomic<uint64_t> requests{0};
  // Requests between GetOrCreate and completion. The sweep never releases a
  // session with a request in flight — that closes the window between
  // claiming the session and pinning its key in EnterLibrary, where a
  // concurrent kill+sweep could otherwise release the library underfoot.
  // GetOrCreate increments; the server decrements (release) strictly after
  // its LAST touch of the session — including the violation kill and crash
  // report — so the slot also keeps the session object alive and keeps a
  // kill from ever landing on a successor session under a reused name.
  std::atomic<uint32_t> in_flight{0};
  // Set when an enforcement violation killed the tenant: the session stops
  // serving immediately and is released on the next sweep.
  bool dead = false;
  bool released = false;
};

class TenantRegistry {
 public:
  struct Stats {
    uint64_t created = 0;       // sessions ever created
    uint64_t released = 0;      // sessions released (idle or dead)
    uint64_t release_retries = 0;  // sweeps that found a session still pinned
    uint64_t killed = 0;        // sessions marked dead by a violation
  };

  TenantRegistry(MultiCompartment* mc, TenantRegistryOptions options);

  // The session for `tenant`, creating it on first use. Returns an error if
  // the tenant is dead-and-not-yet-swept, the name was released earlier and
  // recreation failed, or library registration fails (a registration that
  // then fails scratch allocation is rolled back — the library is released
  // again, so failed creations burn no keys or pool pages). `now_ms` stamps
  // last-activity. On success the session's in_flight count is already
  // incremented — the caller owns one request slot and MUST decrement
  // in_flight after its last touch of the session.
  Result<TenantSession*> GetOrCreate(const std::string& name, uint64_t now_ms);

  // Marks the session dead: no further requests are served, and the next
  // sweep releases its compartment. The caller must hold an in_flight slot
  // on `session` (so it cannot have been swept) — taking the session rather
  // than a name means a kill can never mark a fresh successor session that
  // reused the name.
  void Kill(TenantSession* session);

  // Releases dead sessions and (when idle_timeout_ms > 0) sessions idle past
  // the timeout. A pinned session (request in flight) is skipped and retried
  // on the next sweep. Returns the number of sessions released.
  size_t SweepIdle(uint64_t now_ms);

  // Pre-faults the named tenants' virtual keys (working-set hint ahead of a
  // request batch). Unknown or released names are skipped — a hint must
  // never fail a request.
  void WarmTenants(const std::vector<std::string>& names);

  size_t live_sessions() const;
  Stats stats() const;

 private:
  // Releases one session under mu_. Returns true when released.
  bool ReleaseLocked(TenantSession& session);

  MultiCompartment* mc_;
  const TenantRegistryOptions options_;

  mutable std::mutex mu_;
  // name -> live session. Erasing the map slot destroys the session — safe
  // because release requires in_flight == 0 (see the lifetime note at the
  // top) — and a returning tenant gets a fresh session under the same name.
  std::map<std::string, std::unique_ptr<TenantSession>> sessions_;
  Stats stats_;
};

}  // namespace server
}  // namespace pkrusafe

#endif  // SRC_SERVER_TENANT_REGISTRY_H_
