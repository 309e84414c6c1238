// Multi-tenant sandbox server tests (sim backend): request plumbing,
// violation containment, concurrent serving with a mid-stream violator, and
// tenant-churn lifecycle, and connection handling over real sockets (no
// starvation by idle clients, pipelining order, the connection cap, idle
// close, the line-size limit). check.sh runs the suite under TSan: the I/O
// thread, worker pool, sweep and registry race each other by design.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/jsvm/value.h"
#include "src/mpk/backend_factory.h"
#include "src/runtime/runtime.h"
#include "src/server/client.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/support/socket_loop.h"
#include "src/support/string_util.h"
#include "src/telemetry/crash_report.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "tests/golden_file.h"
#include "tests/resident_pages.h"

namespace pkrusafe {
namespace server {
namespace {

std::unique_ptr<PkruSafeRuntime> MakeSimRuntime() {
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return runtime.ok() ? std::move(*runtime) : nullptr;
}

bool BoolField(const json::Value& v, std::string_view key) {
  const json::Value* field = v.Find(key);
  return field != nullptr && field->is_bool() && field->AsBool();
}

// The server counts request outcomes only in the process-global registry,
// which every test in this binary shares: tests assert deltas taken around
// their own requests.
class RegistryDelta {
 public:
  RegistryDelta() : before_(telemetry::MetricsRegistry::Global().Snapshot().counters) {}
  uint64_t operator[](const std::string& name) const {
    const uint64_t now = telemetry::MetricsRegistry::Global().GetOrCreateCounter(name)->value();
    const auto it = before_.find(name);
    return now - (it == before_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, uint64_t> before_;
};

json::Value MustParse(const std::string& line) {
  auto parsed = json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : json::Value();
}

// Replaces each run of hex digits that follows `prefix` with N: timings,
// timestamps and heap addresses are the only bytes of a response that vary
// from run to run.
std::string Mask(std::string text, const std::string& prefix) {
  for (size_t at = text.find(prefix); at != std::string::npos; at = text.find(prefix, at + 1)) {
    const size_t begin = at + prefix.size();
    size_t end = begin;
    while (end < text.size() && std::isxdigit(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    text.replace(begin, end - begin, 1, 'N');
  }
  return text;
}

TEST(SandboxServerTest, ServesScriptsAndReportsResults) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const RegistryDelta delta;

  const json::Value ok_response = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"alice","script":"let x = 6 * 7; print(x);"})"));
  EXPECT_TRUE(BoolField(ok_response, "ok"));
  EXPECT_EQ(ok_response.GetString("tenant"), "alice");
  ASSERT_NE(ok_response.Find("prints"), nullptr);
  ASSERT_EQ(ok_response.Find("prints")->AsArray().size(), 1u);
  EXPECT_EQ(ok_response.Find("prints")->AsArray()[0].AsString(), "42");
  EXPECT_GT(ok_response.GetUint("latency_ns"), 0u);

  // Script errors are reported per request; the tenant stays alive.
  const json::Value bad = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"alice","script":"let = ;"})"));
  EXPECT_FALSE(BoolField(bad, "ok"));
  EXPECT_FALSE(BoolField(bad, "dead"));
  const json::Value after = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"alice","script":"let y = 1; print(y);"})"));
  EXPECT_TRUE(BoolField(after, "ok"));

  // Malformed requests are rejected without touching any tenant.
  EXPECT_FALSE(BoolField(MustParse((*server)->HandleRequestLine("not json")), "ok"));
  EXPECT_FALSE(BoolField(MustParse((*server)->HandleRequestLine(R"({"script":"1;"})")), "ok"));

  EXPECT_EQ(delta["server.requests"], 3u);
  EXPECT_EQ(delta["server.requests_ok"], 2u);
  EXPECT_EQ(delta["server.script_errors"], 1u);
  EXPECT_EQ(delta["server.rejected"], 2u);
  EXPECT_EQ(delta["server.violations"], 0u);
  EXPECT_EQ((*server)->registry().stats().created, 1u);
}

// The compartments are built on the runtime's allocator: one M_T key for
// the process, so the vpkey cache gets 15 keys minus M_T's and the evicted
// key. The embedder secret lives in that same M_T and every tenant mask
// denies its key.
TEST(SandboxServerTest, CompartmentsShareTheRuntimesTrustedKey) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  auto server = SandboxServer::Create(runtime.get(), SandboxServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  MultiCompartment& mc = (*server)->compartments();
  EXPECT_EQ(mc.vpkey_stats().hw_slots, 13u);
  EXPECT_EQ(runtime->allocator().OwnerOf((*server)->secret_address()), Domain::kTrusted);
  EXPECT_EQ(mc.PrivateOwnerOf((*server)->secret_address()), kTrustedLibrary);

  const json::Value ok_response = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"alice","script":"print(1);"})"));
  ASSERT_TRUE(BoolField(ok_response, "ok"));
  const LibraryId alice = 1;  // the first tenant registers the first library
  const PkruValue mask = mc.PolicyFor(alice);
  EXPECT_FALSE(mask.allows_read(runtime->trusted_key()));
  EXPECT_NE(mc.key_of(alice), runtime->trusted_key());
}

// A runaway script stops at the per-request step budget: a script error,
// not a violation, and the tenant keeps serving.
TEST(SandboxServerTest, RunawayScriptStopsAtTheStepBudget) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  auto server = SandboxServer::Create(runtime.get(), SandboxServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const RegistryDelta delta;

  const json::Value runaway = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"spin","script":"while (true) { }"})"));
  EXPECT_FALSE(BoolField(runaway, "ok"));
  EXPECT_FALSE(BoolField(runaway, "dead"));
  EXPECT_EQ(runaway.GetString("error"), "script step budget exceeded");
  const json::Value after = MustParse(
      (*server)->HandleRequestLine(R"({"tenant":"spin","script":"print(1 + 1);"})"));
  EXPECT_TRUE(BoolField(after, "ok"));

  EXPECT_EQ(delta["server.script_errors"], 1u);
  EXPECT_EQ(delta["server.violations"], 0u);
  EXPECT_EQ((*server)->registry().stats().killed, 0u);
}

TEST(SandboxServerTest, ViolatingTenantDiesWithCrashReportWhileOthersServe) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  options.crash_dir = ::testing::TempDir();
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const RegistryDelta delta;

  EXPECT_TRUE(BoolField(
      MustParse((*server)->HandleRequestLine(
          R"({"tenant":"alice","script":"let a = 1; print(a);"})")),
      "ok"));

  // The §5.4 primitive aimed at the embedder's trusted secret: denied by the
  // tenant mask, and the tenant is killed.
  const json::Value violation = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"evil","script":"__poke(secret_addr(), 255);"})"));
  EXPECT_FALSE(BoolField(violation, "ok"));
  EXPECT_TRUE(BoolField(violation, "dead"));
  EXPECT_NE(violation.GetString("error").find("violation"), std::string::npos);

  // The crash report landed and parses as a pkru_safe_crash_report.
  auto report = telemetry::LoadCrashReport(options.crash_dir + "/crash-evil.json");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->GetString("tenant"), "evil");
  EXPECT_EQ(report->GetString("reason"), "tenant compartment violation");

  // Dead tenants are refused; everyone else keeps serving.
  const json::Value refused = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"evil","script":"let b = 2;"})"));
  EXPECT_FALSE(BoolField(refused, "ok"));
  EXPECT_TRUE(BoolField(refused, "dead"));
  EXPECT_TRUE(BoolField(
      MustParse((*server)->HandleRequestLine(
          R"({"tenant":"alice","script":"let c = 3; print(c);"})")),
      "ok"));

  EXPECT_EQ(delta["server.violations"], 1u);
  EXPECT_EQ((*server)->registry().stats().killed, 1u);
  EXPECT_EQ(delta["server.requests_ok"], 2u);
}

// Tenant names become crash-report file names: anything that could steer
// the write outside crash_dir (path separators, "..") must be rejected at
// parse time, before a session — let alone a file — exists for it.
TEST(SandboxServerTest, HostileTenantNamesAreRejected) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.crash_dir = ::testing::TempDir();
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const char* hostile[] = {
      "../escape", "..", ".", "a/b", "a\\b",
      "..%2f..", " space", "new\nline",
      // 129 chars: over the length cap.
      "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
      "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"};
  const RegistryDelta delta;
  for (const char* name : hostile) {
    const std::string line = "{\"tenant\":\"" + telemetry::JsonEscape(name) +
                             "\",\"script\":\"let h = 1;\"}";
    const json::Value response = MustParse((*server)->HandleRequestLine(line));
    EXPECT_FALSE(BoolField(response, "ok")) << name;
  }
  EXPECT_EQ(delta["server.rejected"], std::size(hostile));
  EXPECT_EQ((*server)->registry().stats().created, 0u);  // no session, no crash file possible
}

// A registration whose scratch allocation fails must roll the library back:
// before the fix every such attempt burned a virtual key and a pool
// reservation, and client retries burned more.
TEST(SandboxServerTest, ScratchAllocFailureDoesNotLeakTheLibrary) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  // The pool's span table takes the top of its first chunk, so a pool of
  // exactly the scratch size cannot also hold the scratch.
  options.tenant_pool_bytes = TenantRegistry::kScratchBytes;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  for (int attempt = 0; attempt < 3; ++attempt) {
    const json::Value response = MustParse((*server)->HandleRequestLine(
        R"({"tenant":"retrier","script":"let r = 1;"})"));
    EXPECT_FALSE(BoolField(response, "ok"));
    EXPECT_EQ((*server)->compartments().live_library_count(), 0u) << attempt;
    EXPECT_EQ((*server)->compartments().vpkey_stats().virtual_keys, 0u) << attempt;
  }
  EXPECT_EQ((*server)->registry().stats().created, 0u);
}

// After a violator is killed and swept, the same name opens a FRESH session
// that serves normally — the kill is pinned to the violating session object,
// so it can never mark a successor dead.
TEST(SandboxServerTest, NameReuseAfterKillGetsAFreshLiveSession) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  options.idle_timeout_ms = 1;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const json::Value boom = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"phoenix","script":"__poke(secret_addr(), 1);"})"));
  EXPECT_TRUE(BoolField(boom, "dead"));

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  ASSERT_EQ((*server)->registry().SweepIdle(now_ms), 1u);

  const json::Value reborn = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"phoenix","script":"let p = 2; print(p);"})"));
  EXPECT_TRUE(BoolField(reborn, "ok"));
  EXPECT_EQ((*server)->registry().stats().created, 2u);
}

// A tenant peeking at ANOTHER tenant's private pool is a violation too:
// tenants are isolated from each other, not just from the embedder.
TEST(SandboxServerTest, TenantsCannotReadEachOthersScratch) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Create bob so his scratch exists, and learn its address via his own
  // scratch_addr() (readable from inside his compartment).
  const json::Value bob = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"bob","script":"print(scratch_addr());"})"));
  ASSERT_TRUE(BoolField(bob, "ok"));
  ASSERT_EQ(bob.Find("prints")->AsArray().size(), 1u);
  const std::string bob_scratch = bob.Find("prints")->AsArray()[0].AsString();

  // Mallory probes bob's scratch from her compartment: denied, and she dies.
  const json::Value probe = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"mallory","script":"__peek()" + bob_scratch + R"();"})"));
  EXPECT_FALSE(BoolField(probe, "ok"));
  EXPECT_TRUE(BoolField(probe, "dead"));
  // Bob is unaffected.
  EXPECT_TRUE(BoolField(
      MustParse((*server)->HandleRequestLine(R"({"tenant":"bob","script":"let z = 9;"})")),
      "ok"));
}

// A long-lived session keeps its pool at two resident pages, the span
// table's and the scratch's first, because every request touches the same
// scratch word. A touch that walked the scratch one word per request
// populated a third page after 512 requests, widening each later key miss's
// TLB flush. The pools are 1 MiB, below a huge page, so THP cannot inflate the
// count (as in MultiCompartmentPoolLayoutTest).
TEST(SandboxServerTest, LongSessionKeepsTwoResidentPoolPages) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.tenant_pool_bytes = size_t{1} << 20;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const json::Value first = MustParse((*server)->HandleRequestLine(
      R"({"tenant":"steady","script":"print(scratch_addr());"})"));
  ASSERT_TRUE(BoolField(first, "ok"));
  const auto scratch = reinterpret_cast<const void*>(
      static_cast<uintptr_t>(std::stoull(first.Find("prints")->AsArray()[0].AsString())));
  for (int request = 1; request < 600; ++request) {
    ASSERT_TRUE(BoolField(MustParse((*server)->HandleRequestLine(
                              R"({"tenant":"steady","script":"let s = 1;"})")),
                          "ok"))
        << request;
  }
  EXPECT_EQ(ResidentPoolPages((*server)->compartments(), scratch).size(), 2u);
}

// The TSan target: concurrent clients over real sockets, several worker
// threads, a violator killed mid-stream, an aggressive sweep running the
// whole time. Survivors' requests must all succeed.
TEST(SandboxServerTest, ConcurrentTenantsSurviveAViolator) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.workers = 4;
  options.sweep_interval_ms = 5;  // sweep aggressively under load
  options.enable_vulnerability = true;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const RegistryDelta delta;
  ASSERT_TRUE((*server)->Start().ok());
  const uint16_t port = (*server)->port();

  constexpr int kSurvivors = 6;
  constexpr int kRequestsEach = 25;
  std::atomic<int> failures{0};
  std::atomic<int> violator_dead{0};

  std::vector<std::thread> threads;
  threads.reserve(kSurvivors + 1);
  for (int t = 0; t < kSurvivors; ++t) {
    threads.emplace_back([&, t] {
      ServerClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kRequestsEach; ++i) {
        auto response = client.Call(tenant, "let v = " + std::to_string(i) + "; print(v);");
        if (!response.ok() || !BoolField(*response, "ok")) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    ServerClient client;
    if (!client.Connect("127.0.0.1", port).ok()) {
      failures.fetch_add(1);
      return;
    }
    // A few good requests, then the violation, then a refused request.
    for (int i = 0; i < 3; ++i) {
      auto warmup = client.Call("violator", "let w = 1;");
      if (!warmup.ok() || !BoolField(*warmup, "ok")) {
        failures.fetch_add(1);
        return;
      }
    }
    auto boom = client.Call("violator", "__poke(secret_addr(), 1);");
    if (boom.ok() && BoolField(*boom, "dead")) {
      violator_dead.fetch_add(1);
    }
    // No follow-up here: with a 5ms sweep the dead session may already have
    // been reaped and the name reopened — refusal-until-sweep is asserted
    // deterministically in ViolatingTenantDies... above.
  });
  for (auto& thread : threads) {
    thread.join();
  }
  (*server)->Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violator_dead.load(), 1);
  EXPECT_EQ(delta["server.requests_ok"], static_cast<uint64_t>(kSurvivors * kRequestsEach + 3));
  EXPECT_EQ(delta["server.violations"], 1u);
  EXPECT_EQ((*server)->registry().stats().killed, 1u);
}

// A hardware runtime's gate writes the real PKRU only. A later mprotect
// server on the same thread must still start from its own allow-all
// register: when the hardware gate's restore leaked into it, the mprotect
// PKRU denied every tenant pool key and T's first write to a pool died.
TEST(SandboxServerTest, MprotectServerServesAfterAHardwareRuntimeCrossedAGate) {
  if (!CreateMpkBackend(BackendKind::kHardware).ok()) {
    GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
  }
  {
    RuntimeConfig config;
    config.backend = BackendKind::kHardware;
    config.mode = RuntimeMode::kEnforcing;
    auto hardware = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(hardware.ok()) << hardware.status().ToString();
    EXPECT_EQ((*hardware)->gates().CallUntrusted([] { return 7; }), 7);
  }

  RuntimeConfig config;
  config.backend = BackendKind::kMprotect;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  auto server = SandboxServer::Create(runtime->get(), SandboxServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int round = 0; round < 2; ++round) {
    for (int t = 0; t < 8; ++t) {
      const std::string line = R"({"tenant":"t)" + std::to_string(t) +
                               R"(","script":"let v = []; push(v, 6); print(v[0] * )" +
                               std::to_string(t) + R"();"})";
      const json::Value response = MustParse((*server)->HandleRequestLine(line));
      EXPECT_TRUE(BoolField(response, "ok")) << line;
    }
  }
}

// Tenant churn: many short-lived sessions across more concurrent tenants
// than the backend has hardware keys. Idle sweeps must release sessions and
// return their virtual keys — neither the live-library count nor the
// virtual-key table may grow with total sessions served.
TEST(SandboxServerTest, ChurnReleasesIdleTenantsWithoutKeyGrowth) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.idle_timeout_ms = 1;  // everything is idle by the next sweep
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kRounds = 3;
  constexpr int kTenantsPerRound = 24;  // > 16 concurrent virtual keys
  const RegistryDelta delta;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kTenantsPerRound; ++i) {
      const std::string tenant = StrFormat("r%d-t%d", round, i);
      const json::Value response = MustParse((*server)->HandleRequestLine(
          R"({"tenant":")" + tenant + R"(","script":"let k = 1; print(k);"})"));
      ASSERT_TRUE(BoolField(response, "ok")) << tenant;
    }
    EXPECT_EQ((*server)->compartments().live_library_count(),
              static_cast<size_t>(kTenantsPerRound));
    // Everything in this round is now idle; sweep it away before the next.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    (*server)->registry().SweepIdle(now_ms);
    EXPECT_EQ((*server)->registry().live_sessions(), 0u);
    EXPECT_EQ((*server)->compartments().live_library_count(), 0u);
  }

  const TenantRegistry::Stats tenants = (*server)->registry().stats();
  EXPECT_EQ(tenants.created, static_cast<uint64_t>(kRounds * kTenantsPerRound));
  EXPECT_EQ(tenants.released, tenants.created);
  // The virtual-key table tracks LIVE keys only — churn must not grow it.
  const VpkeyStats vpkeys = (*server)->compartments().vpkey_stats();
  EXPECT_EQ(vpkeys.virtual_keys, 0u);
  EXPECT_EQ(delta["server.requests"], static_cast<uint64_t>(kRounds * kTenantsPerRound));
  EXPECT_EQ(delta["server.requests_ok"], delta["server.requests"]);
}

// Working-set hints pre-fault the named tenants' keys: the batch that
// follows takes the resident fast path (cache hits, no new misses).
TEST(SandboxServerTest, WarmHintsPrefaultTheNextBatch) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Create two tenants, then churn others so their keys are evicted.
  for (const char* name : {"hot-a", "hot-b"}) {
    ASSERT_TRUE(BoolField(
        MustParse((*server)->HandleRequestLine(
            R"({"tenant":")" + std::string(name) + R"(","script":"let p = 1;"})")),
        "ok"));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(BoolField(
        MustParse((*server)->HandleRequestLine(
            R"({"tenant":"filler-)" + std::to_string(i) + R"(","script":"let f = 1;"})")),
        "ok"));
  }

  // The hint rides on any request; after it, hot-a and hot-b are resident.
  ASSERT_TRUE(BoolField(
      MustParse((*server)->HandleRequestLine(
          R"({"tenant":"hot-a","script":"let q = 1;","warm":["hot-a","hot-b"]})")),
      "ok"));
  const VpkeyStats before = (*server)->compartments().vpkey_stats();
  for (const char* name : {"hot-a", "hot-b"}) {
    ASSERT_TRUE(BoolField(
        MustParse((*server)->HandleRequestLine(
            R"({"tenant":")" + std::string(name) + R"(","script":"let s = 2;"})")),
        "ok"));
  }
  const VpkeyStats after = (*server)->compartments().vpkey_stats();
  EXPECT_EQ(after.misses, before.misses);  // batch ran entirely on hits
  EXPECT_GT(after.hits, before.hits);
}

// Every response shape, byte for byte: ok, script error, violation (and
// its crash report), dead-tenant refusal and the three parse-time rejects.
TEST(SandboxServerTest, ResponsesMatchGolden) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  options.crash_dir = ::testing::TempDir();
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const char* requests[] = {
      R"({"tenant":"alice","script":"let x = 6 * 7; print(x); print(\"a\\\"b\"); return \"r\";"})",
      R"({"tenant":"alice","script":"let = ;"})",
      R"({"tenant":"evil","script":"__poke(secret_addr(), 255);"})",
      R"({"tenant":"evil","script":"let b = 2;"})",
      "not json",
      R"({"script":"1;"})",
      R"({"tenant":"../x","script":"1;"})",
  };
  std::string responses;
  for (const char* request : requests) {
    const std::string response = (*server)->HandleRequestLine(request);
    responses += Mask(Mask(response, "\"latency_ns\":"), "write of 0x") + "\n";
  }
  golden::ExpectMatches(responses, "responses.jsonl");

  std::ifstream report_file(options.crash_dir + "/crash-evil.json", std::ios::binary);
  ASSERT_TRUE(report_file.good());
  std::ostringstream report;
  report << report_file.rdbuf();
  golden::ExpectMatches(Mask(Mask(report.str(), "\"ts_ns\":"), "write of 0x"),
                        "crash_report.json");
}

// Strings a script controls (its prints, its result, the compiler's echo of
// a bad token) reach the client escaped and parse back unchanged.
TEST(SandboxServerTest, HostileStringsRoundTripThroughResponses) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  auto server = SandboxServer::Create(runtime.get(), SandboxServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // In the script source: a raw 0x01 byte, then \" and \\ escapes.
  const std::string literal = "\"A\x01\\\"B\\\\C\"";
  const std::string value = "A\x01\"B\\C";
  const auto request = [](const std::string& script) {
    std::string line;
    json::Writer w(&line);
    w.BeginObject().Key("tenant").String("t").Key("script").String(script).EndObject();
    return line;
  };

  const std::string ok_line =
      (*server)->HandleRequestLine(request("let s = " + literal + "; print(s); return s;"));
  const json::Value ok = MustParse(ok_line);
  EXPECT_TRUE(BoolField(ok, "ok")) << ok_line;
  ASSERT_NE(ok.Find("prints"), nullptr) << ok_line;
  ASSERT_EQ(ok.Find("prints")->AsArray().size(), 1u) << ok_line;
  EXPECT_EQ(ok.Find("prints")->AsArray()[0].AsString(), value);
  EXPECT_EQ(ok.GetString("result"), value);

  // No jsvm compile error echoes a whole string literal, but the lexer echoes
  // the one character it cannot place: here a raw 0x01 and a backslash.
  for (const std::string stray : {"\x01", "\\"}) {
    const std::string bad_line = (*server)->HandleRequestLine(request("let a = 1; " + stray));
    const json::Value bad = MustParse(bad_line);
    EXPECT_FALSE(BoolField(bad, "ok")) << bad_line;
    EXPECT_FALSE(BoolField(bad, "dead")) << bad_line;
    EXPECT_EQ(bad.GetString("error"), "line 1: unexpected character '" + stray + "'");
  }
}

std::string RequestLine(const std::string& tenant, const std::string& script) {
  std::string line;
  json::Writer w(&line);
  w.BeginObject().Key("tenant").String(tenant).Key("script").String(script).EndObject();
  return line;
}

// A script's cold run, its second run (which admits it to the compiled-
// program cache) and its cached runs answer byte for byte alike.
TEST(SandboxServerTest, CachedScriptsAnswerLikeColdOnes) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::vector<std::string> scripts = {
      "let x = 6 * 7; print(x); print(\"a\\\"b\"); return \"r\";",
      "fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); } print(f(12));",
      "let v = []; push(v, \"s\"); push(v, 2); print(len(v)); print(v[0]); return v;",
      "print(scratch_addr() > 0); print(secret_addr() > 0);",
      "let = ;",
      "let a = 1; \\",
  };
  const RegistryDelta delta;
  for (const std::string& script : scripts) {
    const std::string line = RequestLine("alice", script);
    const std::string cold = Mask((*server)->HandleRequestLine(line), "\"latency_ns\":");
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(Mask((*server)->HandleRequestLine(line), "\"latency_ns\":"), cold) << script;
    }
  }
  // Four scripts compile; each is admitted on its second run and hit twice.
  EXPECT_EQ(delta["server.compile_cache.hits"], 8u);
}

// Interning stays per request: a cached script corrupts its own string
// constant through the exploit primitive (a poke at the string's length
// word), and every later run, in any tenant, still starts from the intact
// constant.
TEST(SandboxServerTest, CachedStringConstantsStayPerTenant) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string script = "let s = \"constant\"; print(s); __poke(__addrof(s) + " +
                             std::to_string(offsetof(StringObject, length)) +
                             ", 3); print(s); print(__addrof(s));";
  const RegistryDelta delta;
  for (const char* tenant : {"alice", "alice", "alice", "bob", "bob", "alice"}) {
    const std::string line = (*server)->HandleRequestLine(RequestLine(tenant, script));
    const json::Value response = MustParse(line);
    ASSERT_TRUE(BoolField(response, "ok")) << line;
    const auto& prints = response.Find("prints")->AsArray();
    ASSERT_EQ(prints.size(), 3u) << line;
    EXPECT_EQ(prints[0].AsString(), "constant") << tenant;
    EXPECT_EQ(prints[1].AsString(), "con") << tenant;
  }
  EXPECT_EQ(delta["server.compile_cache.hits"], 4u);
}

// Two workers serve concurrent clients whose requests mix texts every
// client shares (cached after their second sighting) with texts seen once.
TEST(SandboxServerTest, ConcurrentSharedAndDistinctTextsOnTwoWorkers) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.workers = 2;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const RegistryDelta delta;
  ASSERT_TRUE((*server)->Start().ok());
  const uint16_t port = (*server)->port();

  constexpr int kClients = 4;
  constexpr int kRequestsEach = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ServerClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsEach; ++i) {
        // Even requests: one of three shared loops; odd: a text of its own.
        const int value = i % 2 == 0 ? i % 3 : 1000 * (t + 1) + i;
        const std::string script =
            i % 2 == 0 ? "let s = 0; let i = 0; while (i < " + std::to_string(value) +
                             ") { s = s + 1; i = i + 1; } print(s);"
                       : "print(" + std::to_string(value) + ");";
        auto response = client.Call("tenant-" + std::to_string(t), script);
        if (!response.ok() || !BoolField(*response, "ok") ||
            response->Find("prints")->AsArray().size() != 1 ||
            response->Find("prints")->AsArray()[0].AsString() != std::to_string(value)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  (*server)->Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(delta["server.requests_ok"], static_cast<uint64_t>(kClients * kRequestsEach));
}

// --- Connections: the I/O thread over a real socket ---

// A loopback connection for clients ServerClient cannot play: idle,
// partial-line, pipelining and oversized senders. Every read has a deadline,
// so a server that never answers fails the test instead of hanging it.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void SendAll(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  // The next response line; "" on EOF, error or timeout.
  std::string ReadLine(int timeout_ms) {
    size_t newline = 0;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      if (!Fill(timeout_ms)) {
        return "";
      }
    }
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  // True when the server closes the connection within `timeout_ms`.
  bool ClosedWithin(int timeout_ms) {
    while (Fill(timeout_ms)) {
    }
    return closed_;
  }

 private:
  // Reads what arrives within `timeout_ms`; false on timeout or close.
  bool Fill(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      closed_ = true;
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buffer_;
  bool closed_ = false;
};

std::unique_ptr<SandboxServer> StartServer(PkruSafeRuntime* runtime, SandboxServerOptions options) {
  auto server = SandboxServer::Create(runtime, std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok() || !(*server)->Start().ok()) {
    return nullptr;
  }
  return std::move(*server);
}

// Idle sockets and a partial line used to hold a worker each: with two
// workers, a third client waited until those sockets closed.
TEST(SandboxServerTest, IdleAndPartialLineClientsDoNotStarveOthers) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.workers = 2;
  auto server = StartServer(runtime.get(), options);
  ASSERT_NE(server, nullptr);

  std::vector<std::unique_ptr<RawConnection>> stalled;
  for (int i = 0; i < 4; ++i) {
    stalled.push_back(std::make_unique<RawConnection>(server->port()));
  }
  stalled.push_back(std::make_unique<RawConnection>(server->port()));
  stalled.back()->SendAll(R"({"tenant":"slow","script":"1 +)");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let them be accepted

  ServerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto call = std::async(std::launch::async, [&] { return client.Call("alice", "return 1 + 2;"); });
  const std::future_status answered = call.wait_for(std::chrono::seconds(1));
  stalled.clear();  // unblocks a server that gives each connection a worker
  EXPECT_EQ(answered, std::future_status::ready);
  auto response = call.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(BoolField(*response, "ok"));
  EXPECT_EQ(response->GetString("result"), "3");
}

TEST(SandboxServerTest, PipelinedLinesAreAnsweredInOrder) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.workers = 4;
  auto server = StartServer(runtime.get(), options);
  ASSERT_NE(server, nullptr);

  RawConnection connection(server->port());
  connection.SendAll(RequestLine("a", "let s = 0; let i = 0; while (i < 2000) { s = s + i; "
                                      "i = i + 1; } print(1);") +
                     "\n" + RequestLine("b", "print(2);") + "\n" +
                     RequestLine("c", "print(3);") + "\n");
  for (const char* expected : {"1", "2", "3"}) {
    const std::string line = connection.ReadLine(5000);
    const json::Value response = MustParse(line);
    ASSERT_TRUE(BoolField(response, "ok")) << line;
    ASSERT_EQ(response.Find("prints")->AsArray().size(), 1u) << line;
    EXPECT_EQ(response.Find("prints")->AsArray()[0].AsString(), expected);
  }
}

TEST(SandboxServerTest, ConnectionPastTheCapIsClosedAndTheRestServe) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.workers = 2;
  auto server = StartServer(runtime.get(), options);
  ASSERT_NE(server, nullptr);

  std::vector<std::unique_ptr<ServerClient>> clients;
  for (size_t i = 0; i < SocketLoop::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<ServerClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server->port()).ok());
    // Answered, so accepted before the next connection arrives.
    auto response = clients.back()->Call(StrFormat("t%zu", i), "1;");
    ASSERT_TRUE(response.ok() && BoolField(*response, "ok")) << i;
  }
  RawConnection over_cap(server->port());
  EXPECT_TRUE(over_cap.ClosedWithin(5000));
  for (size_t i = 0; i < clients.size(); ++i) {
    auto response = clients[i]->Call(StrFormat("t%zu", i), "2;");
    ASSERT_TRUE(response.ok() && BoolField(*response, "ok")) << i;
  }
}

TEST(SandboxServerTest, IdleConnectionIsClosedAfterIdleTimeout) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.idle_timeout_ms = 200;
  auto server = StartServer(runtime.get(), options);
  ASSERT_NE(server, nullptr);

  RawConnection connection(server->port());
  connection.SendAll(RequestLine("alice", "1;") + "\n");
  EXPECT_TRUE(BoolField(MustParse(connection.ReadLine(5000)), "ok"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(connection.ClosedWithin(5000));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(150));
}

TEST(SandboxServerTest, OversizedLineIsRefusedAndTheServerKeepsServing) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  auto server = StartServer(runtime.get(), SandboxServerOptions{});
  ASSERT_NE(server, nullptr);

  RawConnection oversized(server->port());
  // One byte past the 1 MiB limit and no newline: the server reads it all,
  // so its close is an orderly FIN and the refusal is readable.
  const std::string prefix = R"({"tenant":"big","script":")";
  oversized.SendAll(prefix + std::string((size_t{1} << 20) + 1 - prefix.size(), 'x'));
  const json::Value refusal = MustParse(oversized.ReadLine(5000));
  EXPECT_FALSE(BoolField(refusal, "ok"));
  EXPECT_EQ(refusal.GetString("error"), "request line too large");
  EXPECT_TRUE(oversized.ClosedWithin(5000));

  ServerClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  auto response = client.Call("alice", "print(1);");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(BoolField(*response, "ok"));
}

}  // namespace
}  // namespace server
}  // namespace pkrusafe
