// Multi-tenant sandbox server: many concurrent requests, each tenant's
// untrusted script locked into its own compartment.
//
// This is the server-shaped deployment of the paper's model: the embedder
// (request plumbing, tenant registry, telemetry) is T; every tenant's jsvm
// script is U. The jsvm heap allocates from M_U through the PkruSafeRuntime
// as always; on top of that each tenant session holds one MultiCompartment
// library — a virtual protection key and a private pool — so tenants are
// isolated from EACH OTHER as well as from the embedder (§6 "Number of
// Compartments" at server scale). The runtime's own M_T key rides in the
// compartment manager's extra_deny, so a tenant mask denies the embedder's
// trusted heap even though the two allocators never share a pool.
//
// Request path: accept loop -> worker pool -> per-request jsvm, loaded
// from the compiled-program cache (ProgramCache: a recurring script skips
// lex/parse/compile) -> the call gate (GateSet::CallUntrusted) ->
// MultiCompartment::Scope(tenant) -> Vm::Run. A request may carry a working-set hint naming the tenants of an
// upcoming batch; the server pre-faults their virtual keys so the batch's
// compartment entries take the resident fast path.
//
// Wire protocol: JSONL over TCP, one request and one response object per
// line:
//
//   -> {"tenant":"alice","script":"1+2","warm":["bob","carol"]}
//   <- {"ok":true,"tenant":"alice","result":"3","latency_ns":12345}
//   <- {"ok":false,"tenant":"alice","error":"...","dead":true}
//
// Enforcement: on the sim backend a violating script (e.g. a __poke at the
// embedder's heap) surfaces as kPermissionDenied from Vm::Run — the server
// marks the tenant dead, writes a per-tenant crash report
// (pkru_safe_crash_report JSON), releases the session on the next sweep,
// and KEEPS SERVING other tenants. On the mprotect backend violations are
// genuine SIGSEGVs and page permissions are process-wide, so the server
// must run with workers=1 and a violation kills the whole process (the
// flight recorder writes the report) — per-tenant survival there means one
// process per tenant, which is the deployment the fork-based e2e exercises.
//
// Telemetry: requests/s and latency land in the global metrics registry
// (server.requests, server.violations, server.request_ns histogram, ...),
// so the existing telemetry::Sampler reports throughput and p50/p99 without
// any server-specific plumbing.
#ifndef SRC_SERVER_SANDBOX_SERVER_H_
#define SRC_SERVER_SANDBOX_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/multidomain/multi_compartment.h"
#include "src/runtime/runtime.h"
#include "src/server/program_cache.h"
#include "src/server/tenant_registry.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace server {

struct SandboxServerOptions {
  uint16_t port = 0;   // 0 = ephemeral; port() reports the bound port
  size_t workers = 2;  // MUST be 1 on backends with process-wide enforcement
  // Tenant lifecycle (see TenantRegistry).
  uint64_t idle_timeout_ms = 30'000;
  size_t scratch_bytes = 64 * 1024;
  // How often the accept loop sweeps idle/dead sessions.
  uint64_t sweep_interval_ms = 250;
  // Compartment pool sizes. Virtual keys make the tenant count unbounded;
  // the pools are per-tenant reservations.
  size_t tenant_pool_bytes = size_t{8} << 20;
  size_t shared_pool_bytes = size_t{32} << 20;
  size_t trusted_pool_bytes = size_t{8} << 20;
  // Expose the __addrof/__peek/__poke builtins to scripts (the §5.4
  // exploit primitive) — used by tests and demos to prove containment.
  bool enable_vulnerability = false;
  // Directory for per-tenant crash reports ("" = don't write files).
  std::string crash_dir;
  size_t max_request_bytes = 1 << 20;  // refuse larger request lines
};

class SandboxServer {
 public:
  struct Stats {
    uint64_t requests = 0;    // requests fully processed (any outcome)
    uint64_t ok = 0;          // scripts that ran to completion
    uint64_t script_errors = 0;  // parse/compile/runtime errors (not violations)
    uint64_t violations = 0;  // enforcement violations (tenant killed)
    uint64_t rejected = 0;    // malformed requests / dead-tenant refusals
    TenantRegistry::Stats tenants;
  };

  // The runtime is the embedder's: its backend carries the compartments,
  // its M_U feeds the jsvm heaps, its gates count the transitions. It must
  // outlive the server.
  static Result<std::unique_ptr<SandboxServer>> Create(PkruSafeRuntime* runtime,
                                                       SandboxServerOptions options);
  ~SandboxServer();

  SandboxServer(const SandboxServer&) = delete;
  SandboxServer& operator=(const SandboxServer&) = delete;

  // Binds, listens, and starts the accept loop + worker pool.
  Status Start();
  // Stops accepting, drains workers, closes every connection. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_; }

  Stats stats() const;
  MultiCompartment& compartments() { return *mc_; }
  TenantRegistry& registry() { return *registry_; }

  // The embedder secret scripts may try to reach (via the secret_addr()
  // host function). Allocated from the runtime's M_T: any tenant access is
  // a violation on every backend.
  const void* secret_address() const { return secret_; }

  // Handles one request line and returns the response line (no trailing
  // newline). Exposed for tests and the bench's in-process mode — identical
  // to what a connection-serving worker does.
  std::string HandleRequestLine(const std::string& line);

 private:
  SandboxServer(PkruSafeRuntime* runtime, SandboxServerOptions options);

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  // Runs `script` inside `session`'s compartment. Fills the response fields.
  struct RequestOutcome {
    bool ok = false;
    bool violation = false;
    std::string result;  // display string on success
    std::vector<std::string> prints;  // print() lines the script produced
    std::string error;
    uint64_t latency_ns = 0;
  };
  RequestOutcome RunInTenant(TenantSession* session, const std::string& script);
  void WriteCrashReport(const std::string& tenant, LibraryId library, const Status& status);

  PkruSafeRuntime* runtime_;
  const SandboxServerOptions options_;
  std::unique_ptr<MultiCompartment> mc_;
  std::unique_ptr<TenantRegistry> registry_;
  ProgramCache programs_;
  void* secret_ = nullptr;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  // Accepted connections waiting for a worker.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace server
}  // namespace pkrusafe

#endif  // SRC_SERVER_SANDBOX_SERVER_H_
