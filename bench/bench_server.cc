// Multi-tenant sandbox server throughput and request-latency bench
// (bench_server): requests/s plus p50/p99 per-request latency at 1, 8, and
// 32 concurrent tenants, on both the sim and mprotect backends.
//
// Requests go through the full server path in-process (HandleRequestLine:
// JSON parse -> tenant registry -> call gate -> tenant compartment -> jsvm
// run), which is exactly what a connection worker executes minus socket I/O
// — so the numbers isolate the enforcement and lifecycle cost rather than
// loopback TCP noise. Requests round-robin across the tenant set: at 32
// tenants every request lands on a different compartment than the last,
// which on both backends forces the virtual-key cache through its
// fault-in/eviction path (the >16-tenant regime the vpkey layer exists
// for), and each request touches the tenant's private scratch so the
// tenant's own key is exercised, not just the shared heap.
//
// Writes BENCH_server.json via the shared emitter.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/mpk/backend_factory.h"
#include "src/runtime/runtime.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"

namespace {

using namespace pkrusafe;  // NOLINT: bench brevity

constexpr int kWarmupPerTenant = 3;
constexpr int kRequests = 1500;

// A small but non-trivial script: arithmetic, a loop, locals.
constexpr const char* kScript =
    "let s = 0; let i = 0; while (i < 40) { s = s + i * i; i = i + 1; } print(s);";

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

const char* BackendName(BackendKind kind) {
  return kind == BackendKind::kSim ? "sim" : "mprotect";
}

bool RunCase(BackendKind backend, int tenants, bench::BenchJsonWriter* out) {
  RuntimeConfig config;
  config.backend = backend;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return false;
  }
  server::SandboxServerOptions options;
  options.workers = 1;  // in-process: the worker is this thread
  options.idle_timeout_ms = 0;  // no idle eviction mid-bench
  auto server = server::SandboxServer::Create(runtime->get(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return false;
  }

  std::vector<std::string> requests;
  requests.reserve(tenants);
  for (int t = 0; t < tenants; ++t) {
    json::Writer w(&requests.emplace_back());
    w.BeginObject().Key("tenant").String("tenant-" + std::to_string(t));
    w.Key("script").String(kScript).EndObject();
  }
  for (int warm = 0; warm < kWarmupPerTenant; ++warm) {
    for (const std::string& request : requests) {
      (void)(*server)->HandleRequestLine(request);
    }
  }

  std::vector<double> latencies_ns;
  latencies_ns.reserve(kRequests);
  const double start = NowNs();
  for (int i = 0; i < kRequests; ++i) {
    const double before = NowNs();
    const std::string response = (*server)->HandleRequestLine(requests[i % tenants]);
    latencies_ns.push_back(NowNs() - before);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "bench_server: request failed: %s\n", response.c_str());
      return false;
    }
  }
  const double elapsed_ns = NowNs() - start;

  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto pct = [&](int p) {
    const size_t index =
        std::min(latencies_ns.size() - 1, latencies_ns.size() * p / 100);
    return latencies_ns[index];
  };
  const std::string prefix =
      std::string(BackendName(backend)) + "/tenants:" + std::to_string(tenants);
  out->Add(prefix + "/requests_per_sec", kRequests / (elapsed_ns / 1e9), "req/s");
  out->Add(prefix + "/p50_ns", pct(50), "ns");
  out->Add(prefix + "/p99_ns", pct(99), "ns");
  std::printf("%-22s %10.0f req/s   p50 %8.0f ns   p99 %8.0f ns\n", prefix.c_str(),
              kRequests / (elapsed_ns / 1e9), pct(50), pct(99));
  return true;
}

}  // namespace

int main() {
  bench::BenchJsonWriter out("server");
  for (BackendKind backend : {BackendKind::kSim, BackendKind::kMprotect}) {
    for (int tenants : {1, 8, 32}) {
      if (!RunCase(backend, tenants, &out)) {
        return 1;
      }
    }
  }
  return out.Write() ? 0 : 1;
}
