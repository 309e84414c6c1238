// Multi-tenant sandbox server throughput and request-latency bench
// (bench_server): requests/s plus p50/p99 per-request latency at 1, 8, and
// 32 concurrent tenants, for recurring and unique script texts, on the sim
// and mprotect backends and on hardware MPK when the CPU has PKU.
//
// Requests go through the full server path in-process (HandleRequestLine:
// JSON parse -> tenant registry -> compiled-program cache -> call gate ->
// tenant compartment -> jsvm run), which is exactly what a connection
// worker executes minus socket I/O — so the numbers isolate the
// enforcement, compile and lifecycle cost rather than loopback TCP noise.
// Requests round-robin across the tenant set: at 32 tenants every request
// lands on a different compartment than the last, which forces the
// virtual-key cache through its fault-in/eviction path (the >16-tenant
// regime the vpkey layer exists for), and each request touches the
// tenant's private scratch so the tenant's own key is exercised, not just
// the shared heap.
//
// scripts:recurring sends one script text throughout, so after warm-up
// every request is a compiled-program cache hit; scripts:unique folds the
// request number into the text, so no request is ever admitted to the
// cache and every one is compiled. Each row also reports the cache's hit
// ratio over its timed requests (server.compile_cache.* counters).
//
// The jsvm/shape:* rows time Vm::Run alone, without the server around it,
// for the three script shapes of the repository benchmark's server
// workloads (loop arithmetic, a called function, an array fill and sum):
// ns_per_step is a run's time over its executed steps (the median run of
// the fastest of kShapeRounds rounds), on a hardware-MPK runtime when the
// CPU has PKU and on sim otherwise. Each run executes in U, inside
// GateSet::CallUntrusted as in the server; the timed span is Vm::Run alone,
// so the two gate crossings are not in it.
//
// The jsvm/compile:* rows time the script front end (lex, parse, compile)
// per script for the same three shapes, each script text distinct.
//
// Writes BENCH_server.json via the shared emitter.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/jsvm/compiler.h"
#include "src/jsvm/lexer.h"
#include "src/jsvm/parser.h"
#include "src/jsvm/vm.h"
#include "src/mpk/backend_factory.h"
#include "src/runtime/runtime.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"

namespace {

using namespace pkrusafe;  // NOLINT: bench brevity

constexpr int kWarmupPerTenant = 3;
constexpr int kRequests = 1500;
constexpr int kShapeRuns = 2000;
constexpr int kShapeRounds = 5;

// A small but non-trivial script: arithmetic, a loop, locals. The unique
// variant starts the sum at the request number instead of 0.
std::string Script(bool unique, uint64_t request) {
  return "let s = " + std::to_string(unique ? request : 0) +
         "; let i = 0; while (i < 40) { s = s + i * i; i = i + 1; } print(s);";
}

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetOrCreateCounter(name)->value();
}

// The three script shapes of the repository benchmark's server workloads
// (perfbench/serve.cc), with their seeded constants: `a` a six-digit start,
// `b` a two-digit multiplier.
constexpr const char* kShapeNames[] = {"loop", "call", "array"};

std::string ShapeScript(size_t shape, long long a, long long b) {
  switch (shape) {
    case 0:
      return StrFormat(
          "let s = %lld; let i = 0; while (i < 40) { s = s + (i * %lld) %% 97; i = i + 1; } "
          "print(s);",
          a, b);
    case 1:
      return StrFormat(
          "fn step(x) { return (x * %lld + 7) %% 1000003; } let s = %lld; "
          "for (let i = 0; i < 40; i = i + 1) { s = step(s); } print(s);",
          b, a);
    default:
      return StrFormat(
          "let v = []; for (let i = 0; i < 40; i = i + 1) { push(v, i * %lld + %lld); } "
          "let s = 0; for (let i = 0; i < len(v); i = i + 1) { s = s + v[i]; } print(s);",
          b, a);
  }
}

// jsvm/compile:<shape> rows: the front end's three layers, ns per script,
// over kCompileScripts distinct texts of one shape (as serve_churn sends
// them: every text new). lex_ns is Tokenize; parse_ns is ParseProgram
// (which lexes) minus lex_ns; compile_ns is CompileProgram on the parsed
// tree, bytecode verification included. Each row is the median of
// kCompileRepeats repeats, the shapes interleaved within a repeat.
constexpr int kCompileScripts = 256;
constexpr int kCompilePasses = 8;
constexpr int kCompileRepeats = 7;

template <typename Fn>
double NsPerScript(const std::vector<std::string>& texts, Fn&& fn) {
  const double before = NowNs();
  for (int pass = 0; pass < kCompilePasses; ++pass) {
    for (const std::string& text : texts) {
      fn(text);
    }
  }
  return (NowNs() - before) / (kCompilePasses * static_cast<double>(texts.size()));
}

bool RunCompileLayers(bench::BenchJsonWriter* out) {
  constexpr size_t kShapes = std::size(kShapeNames);
  std::vector<std::vector<std::string>> texts(kShapes);
  for (size_t s = 0; s < kShapes; ++s) {
    for (int i = 0; i < kCompileScripts; ++i) {
      texts[s].push_back(ShapeScript(s, 100'000 + 3'517LL * i, 10 + i % 90));
    }
  }
  // Every text must get through the whole front end before anything is timed.
  for (const auto& shape_texts : texts) {
    for (const std::string& text : shape_texts) {
      if (auto compiled = CompileSource(text); !compiled.ok()) {
        std::fprintf(stderr, "bench_server: %s\n", compiled.status().ToString().c_str());
        return false;
      }
    }
  }
  std::vector<std::vector<double>> lex(kShapes), parse(kShapes), compile(kShapes);
  size_t sink = 0;
  for (int repeat = 0; repeat < kCompileRepeats; ++repeat) {
    for (size_t s = 0; s < kShapes; ++s) {
      std::vector<Program> trees(texts[s].size());
      const double lex_ns = NsPerScript(texts[s], [&](const std::string& text) {
        sink += Tokenize(text)->size();
      });
      const double lex_parse_ns = NsPerScript(texts[s], [&](const std::string& text) {
        sink += ParseProgram(text)->top_level.size();
      });
      size_t next = 0;
      for (const std::string& text : texts[s]) {
        trees[next++] = std::move(*ParseProgram(text));
      }
      next = 0;
      const double compile_ns = NsPerScript(texts[s], [&](const std::string&) {
        sink += CompileProgram(trees[next++ % trees.size()], {})->functions.size();
      });
      lex[s].push_back(lex_ns);
      parse[s].push_back(lex_parse_ns - lex_ns);
      compile[s].push_back(compile_ns);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (size_t s = 0; s < kShapes; ++s) {
    const std::string prefix = std::string("jsvm/compile:") + kShapeNames[s];
    const double l = median(lex[s]);
    const double p = median(parse[s]);
    const double c = median(compile[s]);
    out->Add(prefix + "/lex_ns", l, "ns");
    out->Add(prefix + "/parse_ns", p, "ns");
    out->Add(prefix + "/compile_ns", c, "ns");
    std::printf("%-42s lex %7.0f ns   parse %7.0f ns   compile %7.0f ns   total %7.0f ns\n",
                prefix.c_str(), l, p, c, l + p + c);
  }
  return sink != 0;
}

bool RunCase(const char* backend_name, int tenants, bool unique, bench::BenchJsonWriter* out) {
  RuntimeConfig config;
  config.backend = *ParseBackendKind(backend_name);
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

  // Request lines are built before the timed loop; request i goes to
  // tenant i % tenants, the warm-up's requests first.
  const int warmup = kWarmupPerTenant * tenants;
  std::vector<std::string> requests;
  requests.reserve(warmup + kRequests);
  for (int i = 0; i < warmup + kRequests; ++i) {
    json::Writer w(&requests.emplace_back());
    w.BeginObject().Key("tenant").String("tenant-" + std::to_string(i % tenants));
    w.Key("script").String(Script(unique, static_cast<uint64_t>(i))).EndObject();
  }
  for (int i = 0; i < warmup; ++i) {
    (void)(*server)->HandleRequestLine(requests[i]);
  }

  const uint64_t hits_before = CounterValue("server.compile_cache.hits");
  std::vector<double> latencies_ns;
  latencies_ns.reserve(kRequests);
  const double start = NowNs();
  for (int i = warmup; i < warmup + kRequests; ++i) {
    const double before = NowNs();
    const std::string response = (*server)->HandleRequestLine(requests[i]);
    latencies_ns.push_back(NowNs() - before);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "bench_server: request failed: %s\n", response.c_str());
      return false;
    }
  }
  const double elapsed_ns = NowNs() - start;
  const double hit_ratio =
      static_cast<double>(CounterValue("server.compile_cache.hits") - hits_before) / kRequests;

  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto pct = [&](int p) {
    const size_t index =
        std::min(latencies_ns.size() - 1, latencies_ns.size() * p / 100);
    return latencies_ns[index];
  };
  const std::string prefix = std::string(backend_name) + "/tenants:" + std::to_string(tenants) +
                             (unique ? "/scripts:unique" : "/scripts:recurring");
  out->Add(prefix + "/requests_per_sec", kRequests / (elapsed_ns / 1e9), "req/s");
  out->Add(prefix + "/p50_ns", pct(50), "ns");
  out->Add(prefix + "/p99_ns", pct(99), "ns");
  out->Add(prefix + "/compile_cache_hit_ratio", hit_ratio, "ratio");
  std::printf("%-42s %10.0f req/s   p50 %8.0f ns   p99 %8.0f ns   hits %5.3f\n", prefix.c_str(),
              kRequests / (elapsed_ns / 1e9), pct(50), pct(99), hit_ratio);
  return true;
}

bool RunShapes(bench::BenchJsonWriter* out) {
  const char* backend = CreateMpkBackend(BackendKind::kHardware).ok() ? "hardware" : "sim";
  RuntimeConfig config;
  config.backend = *ParseBackendKind(backend);
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    std::fprintf(stderr, "%s\n", runtime.status().ToString().c_str());
    return false;
  }
  // Rounds interleave the shapes; a row is the fastest round's median, so a
  // burst of host noise during one round does not set it.
  std::vector<std::shared_ptr<const CompiledProgram>> programs;
  for (size_t s = 0; s < std::size(kShapeNames); ++s) {
    auto compiled = CompileSource(ShapeScript(s, 123456, 37));
    if (!compiled.ok()) {
      std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
      return false;
    }
    programs.push_back(std::make_shared<const CompiledProgram>(std::move(*compiled)));
  }
  std::vector<double> best(programs.size(), 1e300);
  std::vector<uint64_t> steps(programs.size(), 0);
  std::vector<double> ns_per_step(kShapeRuns);
  for (int round = 0; round < kShapeRounds; ++round) {
    for (size_t s = 0; s < programs.size(); ++s) {
      for (double& ns : ns_per_step) {
        Vm vm(runtime->get());
        Result<Value> result = Value::Null();
        double elapsed_ns = 0;
        if (const Status loaded = vm.Load(programs[s]); !loaded.ok()) {
          result = loaded;
        } else {
          result = (*runtime)->gates().CallUntrusted([&] {
            const double before = NowNs();
            Result<Value> run = vm.Run();
            elapsed_ns = NowNs() - before;
            return run;
          });
        }
        if (!result.ok()) {
          std::fprintf(stderr, "bench_server: %s: %s\n", kShapeNames[s],
                       result.status().ToString().c_str());
          return false;
        }
        steps[s] = vm.steps_executed();
        ns = elapsed_ns / static_cast<double>(steps[s]);
      }
      std::sort(ns_per_step.begin(), ns_per_step.end());
      best[s] = std::min(best[s], ns_per_step[ns_per_step.size() / 2]);
    }
  }
  for (size_t s = 0; s < programs.size(); ++s) {
    const std::string prefix = std::string("jsvm/shape:") + kShapeNames[s];
    out->Add(prefix + "/ns_per_step", best[s], "ns");
    out->Add(prefix + "/steps", static_cast<double>(steps[s]), "steps");
    std::printf("%-42s %10.2f ns/step   %6llu steps   (%s)\n", prefix.c_str(), best[s],
                static_cast<unsigned long long>(steps[s]), backend);
  }
  return true;
}

}  // namespace

int main() {
  // Line-buffered, so rows already printed survive a later crash.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  bench::BenchJsonWriter out("server");
  if (!RunShapes(&out) || !RunCompileLayers(&out)) {
    return 1;
  }
  for (const char* backend : {"sim", "mprotect", "hardware"}) {
    if (!CreateMpkBackend(*ParseBackendKind(backend)).ok()) {
      std::printf("%-42s unavailable\n", backend);
      continue;
    }
    for (int tenants : {1, 8, 32}) {
      for (bool unique : {false, true}) {
        if (!RunCase(backend, tenants, unique, &out)) {
          return 1;
        }
      }
    }
  }
  return out.Write() ? 0 : 1;
}
