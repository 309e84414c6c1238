// Multi-tenant sandbox server: many concurrent requests, each tenant's
// untrusted script locked into its own compartment.
//
// This is the server-shaped deployment of the paper's model: the embedder
// (request plumbing, tenant registry, telemetry) is T; every tenant's jsvm
// script is U. The jsvm heap allocates from M_U through the PkruSafeRuntime
// as always; on top of that each tenant session holds one MultiCompartment
// library — a virtual protection key and a private pool — so tenants are
// isolated from EACH OTHER as well as from the embedder (§6 "Number of
// Compartments" at server scale). The compartments are built on the
// runtime's PkAllocator, so there is one M_T and one M_U per process and
// every tenant mask denies the runtime's M_T key.
//
// Request path: the I/O thread's SocketLoop splits connections into lines
// -> worker pool, one line at a time per connection (responses stay in
// order) -> per-request jsvm, loaded from the compiled-program cache
// (ProgramCache: a recurring script skips lex/parse/compile) -> the call
// gate (GateSet::CallUntrusted) -> MultiCompartment::Scope(tenant) ->
// Vm::Run -> the response, written by the I/O thread. Workers hold
// requests, never connections or sockets: an idle or half-sent client costs
// buffer memory, not a worker. A request may carry a working-set hint
// naming the tenants of an upcoming batch; the server pre-faults their
// virtual keys so the batch's compartment entries take the resident fast
// path.
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
// Telemetry: requests/s and latency land only in the global metrics registry
// (server.requests, server.violations, server.request_ns histogram, ...),
// so the existing telemetry::Sampler reports throughput and p50/p99 without
// any server-specific plumbing.
#ifndef SRC_SERVER_SANDBOX_SERVER_H_
#define SRC_SERVER_SANDBOX_SERVER_H_

#include <atomic>
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
#include "src/support/socket_loop.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace server {

struct SandboxServerOptions {
  uint16_t port = 0;   // 0 = ephemeral; port() reports the bound port
  size_t workers = 2;  // MUST be 1 on backends with process-wide enforcement
  // Tenant lifecycle (see TenantRegistry); idle connections close too.
  uint64_t idle_timeout_ms = 30'000;
  // How often the I/O thread sweeps idle/dead sessions.
  uint64_t sweep_interval_ms = 250;
  // Per-tenant pool reservation. Virtual keys make the tenant count
  // unbounded; M_T and M_U are the runtime allocator's.
  size_t tenant_pool_bytes = size_t{8} << 20;
  // Expose the __addrof/__peek/__poke builtins to scripts (the §5.4
  // exploit primitive) — used by tests and demos to prove containment.
  bool enable_vulnerability = false;
  // Directory for per-tenant crash reports ("" = don't write files).
  std::string crash_dir;
};

class SandboxServer {
 public:
  // Bytecode steps one request may run (VmOptions::max_steps). Far above
  // any real request, yet a `while (true) {}` ends in a fraction of a
  // second with the script's step-budget error instead of holding a worker.
  static constexpr uint64_t kRequestStepBudget = 10'000'000;

  // The runtime is the embedder's: its backend carries the compartments,
  // its M_U feeds the jsvm heaps, its gates count the transitions. It must
  // outlive the server.
  static Result<std::unique_ptr<SandboxServer>> Create(PkruSafeRuntime* runtime,
                                                       SandboxServerOptions options);
  ~SandboxServer();

  SandboxServer(const SandboxServer&) = delete;
  SandboxServer& operator=(const SandboxServer&) = delete;

  // Binds, listens, and starts the I/O thread + worker pool.
  Status Start();
  // Stops the threads, drops queued requests, closes every connection.
  // Idempotent.
  void Stop();

  uint16_t port() const { return loop_.port(); }

  MultiCompartment& compartments() { return *mc_; }
  TenantRegistry& registry() { return *registry_; }

  // The embedder secret scripts may try to reach (via the secret_addr()
  // host function). Allocated from the runtime's M_T: any tenant access is
  // a violation on every backend.
  const void* secret_address() const { return secret_; }

  // Handles one request line and returns the response line (no trailing
  // newline). Exposed for tests and the bench's in-process mode — identical
  // to what a worker does with a line from a connection.
  std::string HandleRequestLine(const std::string& line);

 private:
  SandboxServer(PkruSafeRuntime* runtime, SandboxServerOptions options);

  struct Job {  // a request line to a worker, or its response back
    uint64_t connection = 0;
    std::string text;
  };

  void IoLoop();
  void WorkerLoop();
  // Hands the connection's next complete line to the workers and marks the
  // connection busy; refuses and closes a line over the size limit.
  void OnInput(uint64_t id, std::string& input);
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

  // I/O thread only, but for Wake() (Start/Stop run while it is stopped).
  SocketLoop loop_;

  std::mutex queue_mu_;  // guards requests_ and responses_
  std::condition_variable queue_cv_;  // requests_ or Stop
  std::deque<Job> requests_;
  std::vector<Job> responses_;

  std::atomic<bool> running_{false};
  std::thread io_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace pkrusafe

#endif  // SRC_SERVER_SANDBOX_SERVER_H_
