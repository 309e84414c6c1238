// Sandbox server end to end on the mprotect backend, where enforcement is
// process-wide and violations are genuine SIGSEGVs.
//
// Test 1 is the deployment story docs/server.md describes: one process per
// tenant. Two forked children each run their own enforcing server; the
// violating tenant's process dies by SIGSEGV and leaves a flight-recorder
// crash report, while the benign tenant's process keeps serving and exits
// clean — per-tenant blast radius, enforced by the MMU.
//
// Test 2 closes the fleet loop through the server: a forked child serves
// ENFORCING with always-on sampled profiling, a tenant script's reads of a
// candidate-site trusted buffer take real serviced SIGSEGVs, the
// observations stream to the parent as PSD1 frames over a live socket, the
// parent aggregates serve-style and pushes a promote frame back, and the
// child applies the promotion LIVE between requests — the next request's
// reads no longer fault. Enforce, stream, promote, keep serving: no files,
// no restart.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/memmap/page.h"
#include "src/runtime/profile_delta.h"
#include "src/runtime/runtime.h"
#include "src/server/sandbox_server.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/aggregator.h"
#include "src/telemetry/crash_report.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stream_net.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace {

constexpr AllocId kHotSite{7000, 0, 0};
constexpr uint64_t kIrHash = 0x5e2f1ee7;

bool ResponseOk(const std::string& line) {
  auto parsed = json::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) {
    return false;
  }
  const json::Value* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

// --- test 1: one process per tenant ---

// A tenant process: its own runtime, its own server. `violate` decides
// whether the tenant's script attacks the embedder secret (and the process
// dies by SIGSEGV) or just serves clean requests and exits 0.
[[noreturn]] void ChildTenantProcess(bool violate, const std::string& report_path) {
  telemetry::SetEnabled(true);
  if (!telemetry::FlightRecorder::Global().Configure(report_path).ok()) {
    _exit(10);
  }
  RuntimeConfig config;
  config.backend = BackendKind::kMprotect;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    _exit(11);
  }
  server::SandboxServerOptions options;
  options.workers = 1;  // process-wide enforcement: single worker
  options.enable_vulnerability = true;
  auto server = server::SandboxServer::Create(runtime->get(), options);
  if (!server.ok()) {
    _exit(12);
  }
  if (!ResponseOk((*server)->HandleRequestLine(
          R"({"tenant":"resident","script":"let a = 1; print(a);"})"))) {
    _exit(13);
  }
  if (violate) {
    // Real MPK violation: CheckAccess is pass-through on this backend, the
    // store lands on the trusted page, and the MMU kills the process.
    (void)(*server)->HandleRequestLine(
        R"({"tenant":"resident","script":"__poke(secret_addr(), 90);"})");
    _exit(14);  // enforcement failed to kill us
  }
  for (int i = 0; i < 3; ++i) {
    if (!ResponseOk((*server)->HandleRequestLine(
            R"({"tenant":"resident","script":"let b = 2 + 3; print(b);"})"))) {
      _exit(15);
    }
  }
  _exit(0);
}

TEST(ServerE2eTest, ViolatingTenantProcessDiesWhileSiblingServes) {
  const std::string violator_report = ::testing::TempDir() + "/server_e2e_violator.json";
  const std::string benign_report = ::testing::TempDir() + "/server_e2e_benign.json";
  std::remove(violator_report.c_str());
  std::remove(benign_report.c_str());

  const pid_t violator = fork();
  ASSERT_GE(violator, 0) << "fork failed: " << std::strerror(errno);
  if (violator == 0) {
    ChildTenantProcess(/*violate=*/true, violator_report);
  }
  const pid_t benign = fork();
  ASSERT_GE(benign, 0) << "fork failed: " << std::strerror(errno);
  if (benign == 0) {
    ChildTenantProcess(/*violate=*/false, benign_report);
  }

  int violator_status = 0;
  ASSERT_EQ(waitpid(violator, &violator_status, 0), violator);
  ASSERT_TRUE(WIFSIGNALED(violator_status))
      << "violator exited " << (WIFEXITED(violator_status) ? WEXITSTATUS(violator_status) : -1)
      << " instead of dying by signal";
  EXPECT_EQ(WTERMSIG(violator_status), SIGSEGV);

  int benign_status = 0;
  ASSERT_EQ(waitpid(benign, &benign_status, 0), benign);
  ASSERT_TRUE(WIFEXITED(benign_status))
      << "benign tenant died by signal " << WTERMSIG(benign_status);
  ASSERT_EQ(WEXITSTATUS(benign_status), 0) << "benign tenant failed at step "
                                           << WEXITSTATUS(benign_status);

  // The violator's flight recorder left an attributed crash report.
  auto report = telemetry::LoadCrashReport(violator_report);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::remove(violator_report.c_str());
  std::remove(benign_report.c_str());
}

// --- test 2: stream deltas while serving, apply promotion live ---

// Pumps the sink until a promote frame naming `site` arrives.
bool AwaitPromotion(telemetry::NetSink& sink, AllocId site, std::vector<AllocId>* sites_out) {
  for (int spin = 0; spin < 4000; ++spin) {  // ~10s at 2.5ms per spin
    sink.Pump();
    for (telemetry::Frame& frame : sink.TakeIncoming()) {
      if (frame.type != telemetry::FrameType::kPolicyUpdate) {
        continue;
      }
      auto parsed = json::Parse(frame.payload);
      if (!parsed.ok() || !parsed->is_object() ||
          parsed->GetString("kind") != "pkru_safe_policy_update" ||
          parsed->GetString("action") != "promote") {
        continue;
      }
      const json::Value* list = parsed->Find("sites");
      if (list == nullptr || !list->is_array()) {
        continue;
      }
      std::vector<AllocId> sites;
      bool hit = false;
      for (const json::Value& entry : list->AsArray()) {
        if (!entry.is_string()) {
          continue;
        }
        auto id = AllocId::Parse(entry.AsString());
        if (!id.ok()) {
          continue;
        }
        sites.push_back(*id);
        hit = hit || *id == site;
      }
      if (hit) {
        *sites_out = std::move(sites);
        return true;
      }
    }
    usleep(2500);
  }
  return false;
}

// The serving producer: sampled-profiling enforcement, tenant requests whose
// __peek reads of the candidate buffer fault-and-record, deltas flushed to
// the parent between requests, promotion applied live.
[[noreturn]] void ChildServingProducer(uint16_t port) {
  RuntimeConfig config;
  config.backend = BackendKind::kMprotect;
  config.mode = RuntimeMode::kEnforcing;
  config.sampled_profiling = true;
  config.sampling.page_fraction = 1.0;
  config.sampling.service_ns_per_interval = ~uint64_t{0} / 2;
  config.sampling.fault_cost_ns = 1;
  config.sampling_candidates.insert(kHotSite);
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  if (!runtime.ok()) {
    _exit(30);
  }
  PkruSafeRuntime& rt = **runtime;

  ProfileStreamWriter::Options writer_options;
  writer_options.epoch = "s1";
  writer_options.ir_hash = kIrHash;
  writer_options.net_port = port;
  ProfileStreamWriter writer(std::move(writer_options));
  if (!writer.Open().ok()) {
    _exit(31);
  }
  telemetry::NetSink& sink = *writer.net_sink();

  server::SandboxServerOptions options;
  options.workers = 1;
  options.enable_vulnerability = true;
  auto server = server::SandboxServer::Create(runtime->get(), options);
  if (!server.ok()) {
    _exit(32);
  }
  // Request outcomes count only in the process-global registry.
  telemetry::Counter* const ok_count =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("server.requests_ok");
  telemetry::Counter* const violation_count =
      telemetry::MetricsRegistry::Global().GetOrCreateCounter("server.violations");
  const uint64_t ok_before = ok_count->value();
  const uint64_t violations_before = violation_count->value();

  // The candidate-site buffer tenant scripts will read.
  void* hot = rt.AllocTrusted(kHotSite, 4 * kPageSize);
  if (hot == nullptr) {
    _exit(33);
  }
  const uintptr_t page = PageUp(reinterpret_cast<uintptr_t>(hot));

  // Request 1: the script's reads take real serviced SIGSEGVs (candidate
  // site: fault-and-record, not fault-and-die) and the request SUCCEEDS.
  const std::string probe = StrFormat(
      R"({"tenant":"t1","script":"let a = __peek(%llu); let b = __peek(%llu);"})",
      static_cast<unsigned long long>(page), static_cast<unsigned long long>(page + 8));
  if (!ResponseOk((*server)->HandleRequestLine(probe))) {
    _exit(34);
  }
  if (rt.stats().sampled_recorded < 2) {
    _exit(35);
  }
  if (!writer.Flush(rt.TakeProfile()).ok()) {
    _exit(36);
  }

  // The aggregator promotes; apply it live — the server keeps its state.
  std::vector<AllocId> sites;
  if (!AwaitPromotion(sink, kHotSite, &sites)) {
    _exit(37);
  }
  if (rt.ApplyPromotions(sites).promoted < 1) {
    _exit(38);
  }

  // Request 2 on the SAME server: the promoted pages are open, the read
  // takes no fault, and the tenant still gets its answer.
  const uint64_t faults_before = rt.stats().sampled_faults;
  const std::string again = StrFormat(
      R"({"tenant":"t1","script":"let c = __peek(%llu);"})",
      static_cast<unsigned long long>(page + kPageSize));
  if (!ResponseOk((*server)->HandleRequestLine(again))) {
    _exit(39);
  }
  if (rt.stats().sampled_faults != faults_before) {
    _exit(40);  // promoted site faulted again
  }
  if (ok_count->value() - ok_before != 2 || violation_count->value() != violations_before) {
    _exit(41);
  }
  writer.Close();
  rt.Free(hot);
  _exit(0);
}

TEST(ServerE2eTest, ServingProducerStreamsDeltasAndAppliesPromotionLive) {
  telemetry::FrameServer frame_server;
  ASSERT_TRUE(frame_server.Start().ok());
  ASSERT_NE(frame_server.port(), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ChildServingProducer(frame_server.port());
  }

  telemetry::AggregatorOptions options;
  options.expected_ir_hash = kIrHash;
  options.static_shared.insert(kHotSite);
  telemetry::ProfileAggregator aggregator(std::move(options));

  size_t frames_seen = 0;
  bool child_done = false;
  int wstatus = 0;
  std::vector<uint64_t> producers;
  for (int spin = 0; spin < 4000 && !child_done; ++spin) {
    std::vector<telemetry::PromotionCandidate> promotions;
    auto polled = frame_server.PollOnce(5, [&](uint64_t client, telemetry::Frame&& frame) {
      if (frame.type != telemetry::FrameType::kProfileDelta) {
        return;
      }
      if (std::find(producers.begin(), producers.end(), client) == producers.end()) {
        producers.push_back(client);
      }
      aggregator.ConsumeDelta("tcp:" + std::to_string(client), frame.payload, &promotions);
    });
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    frames_seen += *polled;
    if (!promotions.empty()) {
      std::string sites;
      for (const auto& promo : promotions) {
        sites += (sites.empty() ? "\"" : ",\"") + promo.site.ToString() + "\"";
      }
      const std::string update =
          "{\"kind\":\"pkru_safe_policy_update\",\"action\":\"promote\",\"sites\":[" + sites + "]}";
      for (uint64_t client : producers) {
        (void)frame_server.SendTo(client, telemetry::FrameType::kPolicyUpdate, update);
      }
    }
    child_done = waitpid(pid, &wstatus, WNOHANG) == pid;
  }

  ASSERT_TRUE(child_done) << "serving producer never exited";
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "producer died by signal " << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "producer failed at step " << WEXITSTATUS(wstatus);

  EXPECT_GE(frames_seen, 1u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);
  EXPECT_EQ(aggregator.stats().rejected_hash, 0u);
  EXPECT_GE(aggregator.stats().promotions_emitted, 1u);
  EXPECT_TRUE(aggregator.rolling().Contains(kHotSite));

  frame_server.Stop();
}

}  // namespace
}  // namespace pkrusafe
