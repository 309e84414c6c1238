// Multi-tenant sandbox server tests (sim backend): request plumbing,
// violation containment, concurrent serving with a mid-stream violator, and
// tenant-churn lifecycle. The concurrency test is the one check.sh runs
// under TSan — it exercises the accept loop, worker pool, sweep thread, and
// registry against each other.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/mpk/backend_factory.h"
#include "src/runtime/runtime.h"
#include "src/server/client.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/telemetry/crash_report.h"
#include "src/telemetry/export.h"
#include "tests/golden_file.h"

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
    text.replace(begin, end - begin, "N");
  }
  return text;
}

TEST(SandboxServerTest, ServesScriptsAndReportsResults) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

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

  const SandboxServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.script_errors, 1u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.tenants.created, 1u);
}

TEST(SandboxServerTest, ViolatingTenantDiesWithCrashReportWhileOthersServe) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.enable_vulnerability = true;
  options.crash_dir = ::testing::TempDir();
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

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

  const SandboxServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.tenants.killed, 1u);
  EXPECT_EQ(stats.ok, 2u);
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
  for (const char* name : hostile) {
    const std::string line = "{\"tenant\":\"" + telemetry::JsonEscape(name) +
                             "\",\"script\":\"let h = 1;\"}";
    const json::Value response = MustParse((*server)->HandleRequestLine(line));
    EXPECT_FALSE(BoolField(response, "ok")) << name;
  }
  const SandboxServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.rejected, std::size(hostile));
  EXPECT_EQ(stats.tenants.created, 0u);  // no session, no crash file possible
}

// A registration whose scratch allocation fails must roll the library back:
// before the fix every such attempt burned a virtual key and a pool
// reservation, and client retries burned more.
TEST(SandboxServerTest, ScratchAllocFailureDoesNotLeakTheLibrary) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.tenant_pool_bytes = 256 * 1024;
  options.scratch_bytes = 1 << 20;  // cannot fit in the tenant pool
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  for (int attempt = 0; attempt < 3; ++attempt) {
    const json::Value response = MustParse((*server)->HandleRequestLine(
        R"({"tenant":"retrier","script":"let r = 1;"})"));
    EXPECT_FALSE(BoolField(response, "ok"));
    EXPECT_EQ((*server)->compartments().live_library_count(), 0u) << attempt;
    EXPECT_EQ((*server)->compartments().vpkey_stats().virtual_keys, 0u) << attempt;
  }
  EXPECT_EQ((*server)->stats().tenants.created, 0u);
}

// scratch_bytes smaller than a word used to divide by zero in the
// per-request scratch touch; the registry now rounds it up to a whole word.
TEST(SandboxServerTest, TinyScratchBytesAreRoundedUpNotDividedByZero) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  SandboxServerOptions options;
  options.scratch_bytes = 4;
  auto server = SandboxServer::Create(runtime.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(BoolField(
      MustParse((*server)->HandleRequestLine(R"({"tenant":"tiny","script":"let t = 1;"})")),
      "ok"));
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
  EXPECT_EQ((*server)->stats().tenants.created, 2u);
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
  const SandboxServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.ok, static_cast<uint64_t>(kSurvivors * kRequestsEach + 3));
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.tenants.killed, 1u);
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
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kTenantsPerRound; ++i) {
      const std::string tenant =
          "r" + std::to_string(round) + "-t" + std::to_string(i);
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

  const SandboxServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.tenants.created,
            static_cast<uint64_t>(kRounds * kTenantsPerRound));
  EXPECT_EQ(stats.tenants.released, stats.tenants.created);
  // The virtual-key table tracks LIVE keys only — churn must not grow it.
  const VpkeyStats vpkeys = (*server)->compartments().vpkey_stats();
  EXPECT_EQ(vpkeys.virtual_keys, 0u);
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kRounds * kTenantsPerRound));
  EXPECT_EQ(stats.ok, stats.requests);
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

}  // namespace
}  // namespace server
}  // namespace pkrusafe
