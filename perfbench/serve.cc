// serve_hot and serve_churn: a single in-process closed-loop client driving
// SandboxServer::HandleRequestLine on the hardware backend. README.md says
// why each workload exists and what it should move.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/jsvm/vm.h"
#include "src/runtime/runtime.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace pkrusafe;  // NOLINT: brevity

struct ServeShape {
  int tenants;
  // Zipf(1) tenant popularity; otherwise uniform.
  bool zipf;
  // A fresh script text per request; otherwise a draw from a fixed corpus.
  bool unique_scripts;
  // Requests between sweeps that retire every idle session (0 = never).
  uint64_t sweep_every;
};

// 8 tenants stay within the 12 hardware key slots the server's
// MultiCompartment claims; 256 tenants are far past them.
constexpr ServeShape kServeHot{8, true, false, 0};
constexpr ServeShape kServeChurn{256, false, true, 16384};

constexpr size_t kCorpusSize = 33;  // a multiple of the three script shapes
constexpr uint64_t kWarmupOps = 2000;
// Operations per side of the traced run (one and a half sweep periods of
// serve_churn), issued in alternating untraced and traced blocks.
constexpr uint64_t kTracedOps = 24'576;
constexpr uint64_t kTraceBlock = 256;
constexpr uint64_t kIdleTimeoutMs = 30'000;

const ServeShape& ShapeFor(const std::string& workload) {
  return workload == "serve_hot" ? kServeHot : kServeChurn;
}

struct Script {
  std::string text;
  std::string expected;  // the single line the script prints
};

// One of three small script shapes (loop arithmetic, a called function, an
// array fill and sum), chosen by `kind`, with seeded constants `a` and `b`.
// The loop count is fixed, so a request's work does not depend on the seed.
// The generator computes the printed value itself, so a wrong answer from
// the VM is caught. All values stay far below 2^53.
Script RenderScript(uint64_t kind, int64_t a, int64_t b) {
  constexpr int64_t n = 40;
  int64_t s = 0;
  std::string text;
  switch (kind % 3) {
    case 0:
      s = a;
      for (int64_t i = 0; i < n; ++i) {
        s += (i * b) % 97;
      }
      text = StrFormat(
          "let s = %lld; let i = 0; while (i < %lld) { s = s + (i * %lld) %% 97; i = i + 1; } "
          "print(s);",
          static_cast<long long>(a), static_cast<long long>(n), static_cast<long long>(b));
      break;
    case 1:
      s = a;
      for (int64_t i = 0; i < n; ++i) {
        s = (s * b + 7) % 1000003;
      }
      text = StrFormat(
          "fn step(x) { return (x * %lld + 7) %% 1000003; } let s = %lld; "
          "for (let i = 0; i < %lld; i = i + 1) { s = step(s); } print(s);",
          static_cast<long long>(b), static_cast<long long>(a), static_cast<long long>(n));
      break;
    default:
      s = n * a + b * n * (n - 1) / 2;
      text = StrFormat(
          "let v = []; for (let i = 0; i < %lld; i = i + 1) { push(v, i * %lld + %lld); } "
          "let s = 0; for (let i = 0; i < len(v); i = i + 1) { s = s + v[i]; } print(s);",
          static_cast<long long>(n), static_cast<long long>(b), static_cast<long long>(a));
      break;
  }
  return Script{std::move(text), std::to_string(s)};
}

// Seeded multiplier in [10, 99] (two digits, so text length is seed-free).
int64_t Multiplier(uint64_t bits) { return 10 + static_cast<int64_t>(bits % 90); }

// Turns (seed, operation index) into a request line and the value its
// script must print. Nothing depends on time or on earlier draws.
class RequestGenerator {
 public:
  RequestGenerator(const ServeShape& shape, uint64_t seed) : shape_(shape), seed_(seed) {
    double total = 0;
    for (int k = 1; k <= shape.tenants; ++k) {
      total += 1.0 / k;
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) {
      c /= total;
    }
    if (!shape.unique_scripts) {
      // Every shape equally often, so the corpus's mean cost is seed-free.
      for (size_t j = 0; j < kCorpusSize; ++j) {
        corpus_.push_back(RenderScript(j, 100'000 + static_cast<int64_t>(Mix(seed, j, 4) % 900'000),
                                       Multiplier(Mix(seed, j, 3))));
      }
    }
  }

  void Make(uint64_t index, std::string* line, std::string* expected) const {
    const int tenant = TenantFor(index);
    if (shape_.unique_scripts) {
      // The operation index is folded into the constant, so no two requests
      // of a run share a script text.
      const Script script =
          RenderScript(Mix(seed_, index, 1),
                       static_cast<int64_t>(index * 1000 + Mix(seed_, index, 2) % 1000),
                       Multiplier(Mix(seed_, index, 3)));
      Format(tenant, script, line, expected);
    } else {
      Format(tenant, corpus_[Mix(seed_, index, 1) % kCorpusSize], line, expected);
    }
  }

  // The set-up request that creates tenant `tenant`'s session.
  void MakeSetup(int tenant, std::string* line, std::string* expected) const {
    const int64_t base = static_cast<int64_t>(Mix(seed_, static_cast<uint64_t>(tenant), 5) % 1000);
    const Script script{StrFormat("print(%d * 1000 + %lld);", tenant, static_cast<long long>(base)),
                        std::to_string(int64_t{tenant} * 1000 + base)};
    Format(tenant, script, line, expected);
  }

 private:
  int TenantFor(uint64_t index) const {
    const uint64_t bits = Mix(seed_, index, 0);
    if (!shape_.zipf) {
      return static_cast<int>(bits % static_cast<uint64_t>(shape_.tenants));
    }
    const double u = UnitInterval(bits);
    int k = 0;
    while (k + 1 < shape_.tenants && zipf_cdf_[static_cast<size_t>(k)] <= u) {
      ++k;
    }
    return k;
  }

  static void Format(int tenant, const Script& script, std::string* line, std::string* expected) {
    // Generated scripts hold no quotes or backslashes: no escaping needed.
    line->assign("{\"tenant\":\"tenant-");
    line->append(std::to_string(tenant));
    line->append("\",\"script\":\"");
    line->append(script.text);
    line->append("\"}");
    *expected = script.expected;
  }

  const ServeShape shape_;
  const uint64_t seed_;
  std::vector<double> zipf_cdf_;
  std::vector<Script> corpus_;
};

bool ResponseMatches(const std::string& response, const std::string& expected) {
  return response.rfind("{\"ok\":true", 0) == 0 &&
         response.find("\"prints\":[\"" + expected + "\"]") != std::string::npos;
}

// The runtime and server one run measures. The server is declared last so
// it is destroyed before the runtime it borrows.
struct ServeFixture {
  std::unique_ptr<PkruSafeRuntime> runtime;
  std::unique_ptr<server::SandboxServer> server;
};

// Set-up as a server pays it before its first request: runtime and server
// creation, then one request per tenant so every session exists.
Result<std::unique_ptr<ServeFixture>> BuildFixture(const ServeShape& shape,
                                                   const RequestGenerator& gen,
                                                   double* tenants_s) {
  auto fixture = std::make_unique<ServeFixture>();
  RuntimeConfig config;
  config.backend = BackendKind::kHardware;
  config.mode = RuntimeMode::kEnforcing;
  PS_ASSIGN_OR_RETURN(fixture->runtime, PkruSafeRuntime::Create(std::move(config)));
  server::SandboxServerOptions options;
  options.workers = 1;  // in-process: the worker is this thread
  options.idle_timeout_ms = kIdleTimeoutMs;
  PS_ASSIGN_OR_RETURN(fixture->server,
                      server::SandboxServer::Create(fixture->runtime.get(), options));
  const uint64_t start = NowNs();
  std::string line;
  std::string expected;
  for (int t = 0; t < shape.tenants; ++t) {
    gen.MakeSetup(t, &line, &expected);
    const std::string response = fixture->server->HandleRequestLine(line);
    if (!ResponseMatches(response, expected)) {
      return InternalError("set-up request failed: " + response);
    }
  }
  *tenants_s = Seconds(NowNs() - start);
  return fixture;
}

// The closed-loop client: issues operations against one fixture, in index
// order.
class ServeClient {
 public:
  ServeClient(const ServeShape& shape, const RequestGenerator& gen, ServeFixture& fixture,
              Report* report)
      : shape_(shape), gen_(gen), fixture_(fixture), report_(report) {}

  // Through HandleRequestLine; returns whether the response was correct and
  // stores the call's latency.
  bool Issue(uint64_t index, uint64_t* latency_ns) {
    Prepare(index);
    const uint64_t start = NowNs();
    const std::string response = fixture_.server->HandleRequestLine(line_);
    *latency_ns = NowNs() - start;
    return ResponseMatches(response, expected_);
  }

  // Span names of Replay, in SpanTrace name-index order.
  enum SpanName : uint16_t {
    kParse,
    kSession,
    kVmInit,
    kLoad,
    kGate,
    kScopeEnter,
    kScratch,
    kRun,
    kScopeExit,
    kRespond,
  };
  static std::vector<std::string> SpanNames() {
    return {"server.parse", "server.session",  "jsvm.init",  "jsvm.load",
            "runtime.gate", "multidomain.scope_enter", "server.scratch", "jsvm.run",
            "multidomain.scope_exit", "server.respond"};
  }

  // The same request through the layers' public calls, in the order
  // HandleRequestLine makes them, with a span around each call. Returns
  // whether the script printed the expected value.
  bool Replay(uint64_t index, uint32_t request, SpanTrace* trace) {
    Prepare(index);
    int32_t span = trace->Open(request, kParse, -1);
    auto parsed = json::Parse(line_);
    std::string tenant;
    std::string script;
    if (parsed.ok() && parsed->is_object()) {
      tenant = parsed->GetString("tenant");
      script = parsed->GetString("script");
    }
    trace->Close(span);
    if (tenant.empty() || script.empty()) {
      return false;
    }

    span = trace->Open(request, kSession, -1);
    auto session = fixture_.server->registry().GetOrCreate(tenant, telemetry::NowNs() / 1'000'000);
    trace->Close(span);
    if (!session.ok()) {
      return false;
    }
    server::TenantSession* ts = *session;

    span = trace->Open(request, kVmInit, -1);
    std::optional<Vm> vm;
    vm.emplace(fixture_.runtime.get(), VmOptions{});
    const uintptr_t secret_addr = reinterpret_cast<uintptr_t>(fixture_.server->secret_address());
    vm->RegisterHost("secret_addr", [secret_addr](Vm&, const std::vector<Value>&) -> Result<Value> {
      return Value::Number(static_cast<double>(secret_addr));
    });
    const uintptr_t scratch_addr = reinterpret_cast<uintptr_t>(ts->scratch);
    vm->RegisterHost("scratch_addr",
                     [scratch_addr](Vm&, const std::vector<Value>&) -> Result<Value> {
                       return Value::Number(static_cast<double>(scratch_addr));
                     });
    trace->Close(span);

    span = trace->Open(request, kLoad, -1);
    const Status loaded = vm->Load(script);
    trace->Close(span);

    Result<Value> result = Value::Null();
    if (loaded.ok()) {
      MultiCompartment& mc = fixture_.server->compartments();
      const int32_t gate = trace->Open(request, kGate, -1);
      fixture_.runtime->gates().CallUntrusted([&] {
        int32_t child = trace->Open(request, kScopeEnter, gate);
        std::optional<MultiCompartment::Scope> scope;
        scope.emplace(mc, ts->library);
        trace->Close(child);
        child = trace->Open(request, kScratch, gate);
        if (ts->scratch != nullptr && ts->scratch_bytes >= sizeof(uint64_t)) {
          auto* words = static_cast<uint64_t*>(ts->scratch);
          const uint64_t n = ts->requests.load(std::memory_order_relaxed);
          words[n % (ts->scratch_bytes / sizeof(uint64_t))] = n;
        }
        trace->Close(child);
        child = trace->Open(request, kRun, gate);
        result = vm->Run();
        trace->Close(child);
        child = trace->Open(request, kScopeExit, gate);
        scope.reset();
        trace->Close(child);
      });
      trace->Close(gate);
      ++scope_entries_;
      ts->requests.fetch_add(1, std::memory_order_relaxed);
    }

    // Response, Vm teardown and the request slot's release.
    span = trace->Open(request, kRespond, -1);
    bool ok = loaded.ok() && result.ok();
    if (ok) {
      const std::string display = vm->ToDisplayString(*result);
      const std::vector<std::string>& prints = vm->print_output();
      ok = prints.size() == 1 && prints[0] == expected_;
      response_ = StrFormat("{\"ok\":true,\"tenant\":\"%s\",\"result\":\"%s\",\"prints\":[\"%s\"]}",
                            telemetry::JsonEscape(tenant).c_str(),
                            telemetry::JsonEscape(display).c_str(),
                            ok ? telemetry::JsonEscape(prints[0]).c_str() : "");
    }
    vm.reset();
    ts->in_flight.fetch_sub(1, std::memory_order_release);
    trace->Close(span);
    return ok;
  }

  uint64_t scope_entries() const { return scope_entries_; }

 private:
  // Generates the operation's input and, on the sweep cadence, first
  // retires every idle session (a clock one idle timeout ahead of now).
  void Prepare(uint64_t index) {
    if (shape_.sweep_every != 0 && index != 0 && index % shape_.sweep_every == 0) {
      server::TenantRegistry& registry = fixture_.server->registry();
      registry.SweepIdle(telemetry::NowNs() / 1'000'000 + kIdleTimeoutMs);
      if (registry.live_sessions() != 0) {
        report_->Fail("sweep left " + std::to_string(registry.live_sessions()) + " sessions");
      }
    }
    gen_.Make(index, &line_, &expected_);
  }

  const ServeShape& shape_;
  const RequestGenerator& gen_;
  ServeFixture& fixture_;
  Report* report_;
  std::string line_;
  std::string expected_;
  std::string response_;
  uint64_t scope_entries_ = 0;
};

void AddServeEnv(ServeFixture& fixture, Report* report) {
  report->env.push_back(StrFormat("\"backend\":\"%s\"",
                                  std::string(fixture.runtime->backend().name()).c_str()));
  report->env.push_back(StrFormat(
      "\"hw_slots\":%zu", fixture.server->compartments().vpkey_stats().hw_slots));
}

void RunTimed(const Args& args, const ServeShape& shape, const RequestGenerator& gen,
              Report* report) {
  double tenants_s = 0;
  double setup_s = 0;
  auto built = BuildMeasured([&] { return BuildFixture(shape, gen, &tenants_s); }, &setup_s);
  if (!built.ok()) {
    report->Fail(built.status().ToString());
    return;
  }
  std::unique_ptr<ServeFixture> fixture = std::move(*built);
  AddServeEnv(*fixture, report);

  ServeClient client(shape, gen, *fixture, report);
  uint64_t latency = 0;
  uint64_t index = 0;
  for (; index < kWarmupOps; ++index) {
    if (!client.Issue(index, &latency)) {
      report->Fail("warm-up request " + std::to_string(index) + " failed");
    }
  }

  // With sweeps, a window is one sweep period: it always holds one sweep and
  // the re-creations that follow it, which make up the latency tail.
  TimedPhase phase(shape.sweep_every);
  const MultiCompartment* mc = &fixture->server->compartments();
  const LayerCounters before = LayerCounters::Read(*fixture->runtime, mc);
  MeasureFor(
      args.seconds, index,
      [&](uint64_t i, uint64_t* latency_ns) { return client.Issue(i, latency_ns); }, &phase);
  const LayerCounters delta = LayerCounters::Read(*fixture->runtime, mc) - before;

  // Cross-checks: the server saw exactly the client's requests, and every
  // request entered its tenant's compartment exactly once.
  if (delta.server_requests != phase.attempted) {
    report->Fail(StrFormat("server.requests delta %llu != attempted %llu",
                           static_cast<unsigned long long>(delta.server_requests),
                           static_cast<unsigned long long>(phase.attempted)));
  }
  if (delta.server_ok != phase.ok) {
    report->Fail(StrFormat("server.requests_ok delta %llu != correct responses %llu",
                           static_cast<unsigned long long>(delta.server_ok),
                           static_cast<unsigned long long>(phase.ok)));
  }
  if (delta.vpkey_hits + delta.vpkey_misses != delta.server_requests) {
    report->Fail(StrFormat("vpkey hits+misses %llu != Scope entries %llu",
                           static_cast<unsigned long long>(delta.vpkey_hits + delta.vpkey_misses),
                           static_cast<unsigned long long>(delta.server_requests)));
  }
  AddEndToEnd(phase, setup_s, report);
}

// The traced run: a fixed number of operations, so every count repeats
// exactly for a seed. Untraced requests through HandleRequestLine give the
// reference request time; traced replays give the per-layer split.
void RunTraced(const ServeShape& shape, const RequestGenerator& gen, const Args& args,
               Report* report) {
  LayerReport layers;
  const uint64_t faults_before = CounterValue("mpk.faults.serviced");
  auto built = BuildFixture(shape, gen, &layers.setup_tenants_s);
  if (!built.ok()) {
    report->Fail(built.status().ToString());
    return;
  }
  layers.mpk_faults_serviced_in_setup =
      static_cast<double>(CounterValue("mpk.faults.serviced") - faults_before);
  ServeFixture& fixture = **built;
  AddServeEnv(fixture, report);

  ServeClient client(shape, gen, fixture, report);
  uint64_t latency = 0;
  uint64_t index = 0;
  for (; index < kWarmupOps; ++index) {
    if (!client.Issue(index, &latency)) {
      report->Fail("warm-up request " + std::to_string(index) + " failed");
    }
  }

  // Untraced and traced blocks alternate, so host speed changes during the
  // run hit both sides alike; counters accumulate over traced blocks only.
  server::TenantRegistry& registry = fixture.server->registry();
  const MultiCompartment* mc = &fixture.server->compartments();
  SpanTrace trace(ServeClient::SpanNames(), kTracedOps * 10);
  std::vector<uint64_t> untraced;
  untraced.reserve(kTracedOps);
  uint64_t untraced_wall_ns = 0;
  uint64_t traced_wall_ns = 0;
  // Session churn is a property of the request stream (the sweeps fall on
  // fixed indices), so it is counted over both sides.
  const server::TenantRegistry::Stats sessions_before = registry.stats();
  LayerCounters delta;
  uint32_t request = 0;
  for (uint64_t block = 0; block < 2 * kTracedOps / kTraceBlock; ++block) {
    if (block % 2 == 0) {
      const uint64_t start = NowNs();
      for (uint64_t i = 0; i < kTraceBlock; ++i) {
        report->failed += client.Issue(index++, &latency) ? 0 : 1;
        untraced.push_back(latency);
      }
      untraced_wall_ns += NowNs() - start;
      continue;
    }
    const LayerCounters before = LayerCounters::Read(*fixture.runtime, mc);
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < kTraceBlock; ++i) {
      report->failed += client.Replay(index++, request++, &trace) ? 0 : 1;
    }
    traced_wall_ns += NowNs() - start;
    delta += LayerCounters::Read(*fixture.runtime, mc) - before;
  }
  const server::TenantRegistry::Stats sessions_after = registry.stats();
  report->attempted = 2 * kTracedOps;
  if (report->failed != 0) {
    report->Fail(std::to_string(report->failed) + " traced-run operations failed");
  }
  if (delta.vpkey_hits + delta.vpkey_misses != client.scope_entries()) {
    report->Fail(StrFormat("vpkey hits+misses %llu != Scope entries %llu",
                           static_cast<unsigned long long>(delta.vpkey_hits + delta.vpkey_misses),
                           static_cast<unsigned long long>(client.scope_entries())));
  }

  const double ops = static_cast<double>(kTracedOps);
  layers.server_parse_us = Mean(trace.DurationsOf(ServeClient::kParse)) / 1e3;
  std::vector<uint64_t> session_ns = trace.DurationsOf(ServeClient::kSession);
  layers.server_session_us = Mean(session_ns) / 1e3;
  layers.server_session_p99_us = Percentile(session_ns, 99) / 1e3;
  layers.server_sessions_created_per_kreq =
      static_cast<double>(sessions_after.created - sessions_before.created) / (2 * ops) * 1000;
  layers.server_sessions_released_per_kreq =
      static_cast<double>(sessions_after.released - sessions_before.released) / (2 * ops) * 1000;
  layers.jsvm_load_us = Mean(trace.DurationsOf(ServeClient::kLoad)) / 1e3;
  layers.jsvm_run_us = Mean(trace.DurationsOf(ServeClient::kRun)) / 1e3;
  layers.runtime_gate_us = Mean(trace.SelfTimesOf(ServeClient::kGate)) / 1e3;
  std::vector<uint64_t> scope_ns = trace.DurationsOf(ServeClient::kScopeEnter);
  const std::vector<uint64_t> exit_ns = trace.DurationsOf(ServeClient::kScopeExit);
  for (size_t i = 0; i < scope_ns.size(); ++i) {
    scope_ns[i] += exit_ns[i];
  }
  layers.multidomain_scope_us = Mean(scope_ns) / 1e3;
  layers.multidomain_scope_p99_us = Percentile(scope_ns, 99) / 1e3;
  const uint64_t pins = delta.vpkey_hits + delta.vpkey_misses;
  layers.vpkey_hit_ratio = pins == 0 ? 0 : static_cast<double>(delta.vpkey_hits) / pins;
  layers.vpkey_evictions_per_req = static_cast<double>(delta.vpkey_evictions) / ops;
  layers.vpkey_retag_us_per_miss =
      delta.vpkey_misses == 0
          ? 0
          : static_cast<double>(delta.vpkey_retag_ns) / static_cast<double>(delta.vpkey_misses) / 1e3;
  const double untraced_mean_ns = Mean(untraced);
  layers.FillRuntimeLayers(*fixture.runtime, delta, kTracedOps, untraced_mean_ns);
  layers.trace_unattributed_frac = 1 - Mean(trace.AttributedPerRequest()) / untraced_mean_ns;
  layers.trace_overhead_frac =
      1 - static_cast<double>(untraced_wall_ns) / static_cast<double>(traced_wall_ns);
  layers.AddTo(report);
  if (!args.trace_out.empty() && !trace.WriteChromeTrace(args.trace_out)) {
    report->Fail("cannot write " + args.trace_out);
  }
}

}  // namespace

void PrintServeInputs(const Args& args) {
  const RequestGenerator gen(ShapeFor(args.workload), args.seed);
  std::string line;
  std::string expected;
  for (int i = 0; i < args.print_inputs; ++i) {
    gen.Make(static_cast<uint64_t>(i), &line, &expected);
    std::printf("%s\t%s\n", line.c_str(), expected.c_str());
  }
}

Report RunServe(const Args& args) {
  Report report;
  const ServeShape& shape = ShapeFor(args.workload);
  const RequestGenerator gen(shape, args.seed);
  if (args.trace) {
    RunTraced(shape, gen, args, &report);
  } else {
    RunTimed(args, shape, gen, &report);
  }
  return report;
}

}  // namespace perfbench
