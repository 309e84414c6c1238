// pkrusafe_serve: the multi-tenant sandbox server as a binary.
//
// Serves the JSONL request protocol of src/server/sandbox_server.h on a
// loopback TCP port: each tenant's script runs in its own compartment (one
// virtual protection key + private pool per tenant session), the jsvm heap
// allocates from M_U, and an enforcement violation kills exactly the
// offending tenant (sim backend) while other tenants keep serving.
//
//   pkrusafe_serve [--port=N] [--backend=sim|mprotect] [--workers=N]
//                  [--idle-timeout-ms=N] [--duration-ms=N]
//                  [--metrics=FILE] [--sample-ms=N] [--crash-dir=DIR]
//                  [--enable-vulnerability] [--stats]
//
// Prints "serving on 127.0.0.1:PORT" once listening (scripts parse this),
// then serves until --duration-ms elapses or SIGINT/SIGTERM. On the
// mprotect backend enforcement is process-wide, so --workers is forced to 1
// and a violating tenant kills the whole process (the deployment there is
// one process per tenant; see docs/server.md).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/mpk/backend_factory.h"
#include "src/runtime/runtime.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"

namespace {

using namespace pkrusafe;  // NOLINT: tool brevity

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: pkrusafe_serve [--port=N] [--backend=sim|mprotect] [--workers=N]\n"
               "                      [--idle-timeout-ms=N] [--sweep-interval-ms=N]\n"
               "                      [--duration-ms=N] [--metrics=FILE] [--sample-ms=N]\n"
               "                      [--crash-dir=DIR] [--enable-vulnerability] [--stats]\n"
               "\n"
               "Serves the multi-tenant sandbox protocol (one JSON request per line):\n"
               "  {\"tenant\":NAME,\"script\":SRC[,\"warm\":[NAMES...]]}\n"
               "--metrics=FILE streams sampler rows (requests/s, server.request_ns\n"
               "p50/p99) as JSONL. --duration-ms=0 serves until SIGINT/SIGTERM.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string backend = "sim";
  size_t workers = 0;  // 0 = backend default
  uint64_t idle_timeout_ms = 30'000;
  uint64_t sweep_interval_ms = 250;
  uint64_t duration_ms = 0;
  std::string metrics_path;
  uint64_t sample_ms = 100;
  std::string crash_dir;
  bool enable_vulnerability = false;
  bool print_stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      return std::strncmp(arg.c_str(), prefix, std::strlen(prefix)) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    const char* v = nullptr;
    if ((v = value_of("--port="))) {
      port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if ((v = value_of("--backend="))) {
      backend = v;
    } else if ((v = value_of("--workers="))) {
      workers = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--idle-timeout-ms="))) {
      idle_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--sweep-interval-ms="))) {
      sweep_interval_ms = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--duration-ms="))) {
      duration_ms = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--metrics="))) {
      metrics_path = v;
    } else if ((v = value_of("--sample-ms="))) {
      sample_ms = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--crash-dir="))) {
      crash_dir = v;
    } else if (arg == "--enable-vulnerability") {
      enable_vulnerability = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      return Usage();
    }
  }

  auto backend_kind = ParseBackendKind(backend);
  if (!backend_kind.ok()) {
    std::fprintf(stderr, "%s\n", backend_kind.status().ToString().c_str());
    return 1;
  }
  const bool native = *backend_kind != BackendKind::kSim;
  if (workers == 0) {
    workers = native ? 1 : 4;
  }
  if (native && workers != 1) {
    std::fprintf(stderr,
                 "pkrusafe_serve: backend '%s' enforces process-wide; forcing --workers=1\n",
                 backend.c_str());
    workers = 1;
  }

  RuntimeConfig config;
  config.backend = *backend_kind;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return 1;
  }

  server::SandboxServerOptions options;
  options.port = port;
  options.workers = workers;
  options.idle_timeout_ms = idle_timeout_ms;
  options.sweep_interval_ms = sweep_interval_ms;
  options.enable_vulnerability = enable_vulnerability;
  options.crash_dir = crash_dir;
  auto server = server::SandboxServer::Create(runtime->get(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  if (auto status = (*server)->Start(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  telemetry::Sampler sampler;
  if (!metrics_path.empty()) {
    telemetry::Sampler::Options sampler_options;
    sampler_options.path = metrics_path;
    sampler_options.period_ms = sample_ms;
    if (auto status = sampler.Start(sampler_options); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("serving on 127.0.0.1:%u\n", (*server)->port());
  std::fflush(stdout);

  const uint64_t step_ms = 50;
  uint64_t elapsed_ms = 0;
  while (g_stop == 0 && (duration_ms == 0 || elapsed_ms < duration_ms)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
    elapsed_ms += step_ms;
  }

  (*server)->Stop();
  sampler.Stop();

  if (print_stats) {
    // Request outcomes and the compiled-program cache count only in the
    // global registry; session lifecycle counts live in the tenant registry.
    std::string line;
    json::Writer w(&line);
    w.BeginObject();
    auto& metrics = telemetry::MetricsRegistry::Global();
    for (const char* name :
         {"server.requests", "server.requests_ok", "server.script_errors", "server.violations",
          "server.rejected", "server.compile_cache.hits", "server.compile_cache.misses",
          "server.compile_cache.admitted", "server.compile_cache.evictions"}) {
      w.Key(name).Uint(metrics.GetOrCreateCounter(name)->value());
    }
    const server::TenantRegistry::Stats tenants = (*server)->registry().stats();
    w.Key("tenants_created").Uint(tenants.created).Key("tenants_released").Uint(tenants.released);
    w.Key("tenants_killed").Uint(tenants.killed).EndObject();
    std::printf("%s\n", line.c_str());
  }
  return 0;
}
