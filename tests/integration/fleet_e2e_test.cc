// Fleet telemetry end to end, over a real socket and real faults.
//
// A forked producer runs ENFORCING on the mprotect backend with always-on
// sampled profiling. Its candidate-site reads take genuine SIGSEGVs, the
// observations leave the process as PSD1 frames through a live NetSink, the
// parent aggregates them serve-style (ConsumeDelta + the demotion
// sweep), and policy flows BACK over the same connection: a promote frame
// the producer applies online (the site stops faulting), then — after the
// site goes cold for two epochs — a demote frame that returns it to
// trap-on-touch (the site faults again). No files, no restarts.
//
// A second test closes the provenance loop: the aggregate becomes an
// exported artifact, System::Create loads it (hash-checked) to partition an
// enforcement build, and a tampered hash is refused.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/pkru_safe.h"
#include "src/memmap/page.h"
#include "src/runtime/profile_artifact.h"
#include "src/runtime/profile_delta.h"
#include "src/runtime/runtime.h"
#include "src/support/json.h"
#include "src/telemetry/aggregator.h"
#include "src/telemetry/stream_net.h"

namespace pkrusafe {
namespace {

constexpr AllocId kCandidateSite{1, 0, 0};
constexpr AllocId kKeepWarmSite{2, 0, 0};
constexpr uint64_t kIrHash = 0xf1ee7c0de;

Result<std::unique_ptr<PkruSafeRuntime>> MakeSampledEnforcingRuntime() {
  RuntimeConfig config;
  config.backend = BackendKind::kMprotect;
  config.mode = RuntimeMode::kEnforcing;
  config.sampled_profiling = true;
  config.sampling.page_fraction = 1.0;  // observe every page
  config.sampling.service_ns_per_interval = ~uint64_t{0} / 2;
  config.sampling.fault_cost_ns = 1;
  config.sampling_candidates.insert(kCandidateSite);
  config.sampling_candidates.insert(kKeepWarmSite);
  return PkruSafeRuntime::Create(std::move(config));
}

// Pumps the sink until a policy-update frame with `action` naming `site`
// arrives (other frames are ignored). Returns false on timeout.
bool AwaitPolicy(telemetry::NetSink& sink, const std::string& action, AllocId site,
                 std::vector<AllocId>* sites_out) {
  for (int spin = 0; spin < 4000; ++spin) {  // ~10s at 2.5ms per spin
    sink.Pump();
    for (telemetry::Frame& frame : sink.TakeIncoming()) {
      if (frame.type != telemetry::FrameType::kPolicyUpdate) {
        continue;
      }
      auto parsed = json::Parse(frame.payload);
      if (!parsed.ok() || !parsed->is_object()) {
        continue;
      }
      if (parsed->GetString("kind") != "pkru_safe_policy_update" ||
          parsed->GetString("action") != action) {
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

// The producer. Exits 0 on success, a distinct code per failed step.
[[noreturn]] void ChildFleetProducer(uint16_t port) {
  auto runtime = MakeSampledEnforcingRuntime();
  if (!runtime.ok()) {
    _exit(10);
  }
  PkruSafeRuntime& rt = **runtime;

  ProfileStreamWriter::Options options;
  options.epoch = "e1";
  options.ir_hash = kIrHash;
  options.net_port = port;
  ProfileStreamWriter writer(std::move(options));
  if (!writer.Open().ok()) {
    _exit(11);
  }
  telemetry::NetSink& sink = *writer.net_sink();

  void* candidate = rt.AllocTrusted(kCandidateSite, 4 * kPageSize);
  void* warm = rt.AllocTrusted(kKeepWarmSite, 4 * kPageSize);
  if (candidate == nullptr || warm == nullptr) {
    _exit(12);
  }
  const uintptr_t page = PageUp(reinterpret_cast<uintptr_t>(candidate));
  const uintptr_t warm_page = PageUp(reinterpret_cast<uintptr_t>(warm));

  // Epoch e1: two real serviced SIGSEGVs on the candidate site, streamed.
  {
    UntrustedScope scope(rt.gates());
    volatile unsigned char byte = *reinterpret_cast<unsigned char*>(page);
    (void)byte;
    byte = *reinterpret_cast<unsigned char*>(page + 8);
  }
  if (rt.stats().sampled_recorded < 2) {
    _exit(13);
  }
  if (!writer.Flush(rt.TakeProfile()).ok()) {
    _exit(14);
  }

  // The aggregator promotes; the frame comes back over the same socket.
  std::vector<AllocId> sites;
  if (!AwaitPolicy(sink, "promote", kCandidateSite, &sites)) {
    _exit(15);
  }
  if (rt.ApplyPromotions(sites).promoted < 1) {
    _exit(16);
  }
  const uint64_t faults_before = rt.stats().sampled_faults;
  {
    UntrustedScope scope(rt.gates());
    volatile unsigned char byte = *reinterpret_cast<unsigned char*>(page + kPageSize);
    (void)byte;
  }
  if (rt.stats().sampled_faults != faults_before) {
    _exit(17);  // the promoted site faulted again
  }

  // Epochs e2, e3: only the keep-warm site is exercised. Two cold epochs
  // later the aggregator demotes the candidate.
  for (const char* epoch : {"e2", "e3"}) {
    writer.SetEpoch(epoch);
    {
      UntrustedScope scope(rt.gates());
      volatile unsigned char byte = *reinterpret_cast<unsigned char*>(warm_page);
      (void)byte;
    }
    if (!writer.Flush(rt.TakeProfile()).ok()) {
      _exit(18);
    }
  }
  sites.clear();
  if (!AwaitPolicy(sink, "demote", kCandidateSite, &sites)) {
    _exit(19);
  }
  const auto demoted = rt.ApplyDemotions({kCandidateSite});
  if (demoted.demoted != 1 || demoted.pages_closed < 1) {
    _exit(20);
  }

  // Trap-on-touch again: the next read must re-enter the (serviced) fault
  // path, proving the demotion really re-protected the live pages.
  const uint64_t faults_cold = rt.stats().sampled_faults;
  {
    UntrustedScope scope(rt.gates());
    volatile unsigned char byte = *reinterpret_cast<unsigned char*>(page);
    (void)byte;
  }
  if (rt.stats().sampled_faults <= faults_cold) {
    _exit(21);
  }

  writer.Close();
  rt.Free(candidate);
  rt.Free(warm);
  _exit(0);
}

std::string PolicyJson(const char* action, const std::vector<telemetry::PromotionCandidate>& promos,
                       const std::vector<telemetry::DemotionCandidate>& demos) {
  std::string sites;
  for (const auto& promo : promos) {
    sites += (sites.empty() ? "\"" : ",\"") + promo.site.ToString() + "\"";
  }
  for (const auto& demo : demos) {
    sites += (sites.empty() ? "\"" : ",\"") + demo.site.ToString() + "\"";
  }
  return std::string("{\"kind\":\"pkru_safe_policy_update\",\"action\":\"") + action +
         "\",\"sites\":[" + sites + "]}";
}

TEST(FleetE2eTest, PromoteThenDemoteOverLiveSocket) {
  telemetry::FrameServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ChildFleetProducer(server.port());
  }

  telemetry::AggregatorOptions options;
  options.expected_ir_hash = kIrHash;
  options.static_shared.insert(kCandidateSite);
  options.static_shared.insert(kKeepWarmSite);
  options.demote_cold_epochs = 2;
  telemetry::ProfileAggregator aggregator(std::move(options));

  // The serve loop, inline: consume frames, sweep for cold sites, push
  // policy back to every connection that has produced.
  size_t frames_seen = 0;
  bool child_done = false;
  int wstatus = 0;
  std::vector<uint64_t> producers;
  for (int spin = 0; spin < 4000 && !child_done; ++spin) {
    std::vector<telemetry::PromotionCandidate> promotions;
    auto polled = server.PollOnce(5, [&](uint64_t client, telemetry::Frame&& frame) {
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
    std::vector<telemetry::DemotionCandidate> demotions;
    aggregator.CollectDemotions(&demotions);
    if (!promotions.empty()) {
      const std::string update = PolicyJson("promote", promotions, {});
      for (uint64_t client : producers) {
        (void)server.SendTo(client, telemetry::FrameType::kPolicyUpdate, update);
      }
    }
    if (!demotions.empty()) {
      const std::string update = PolicyJson("demote", {}, demotions);
      for (uint64_t client : producers) {
        (void)server.SendTo(client, telemetry::FrameType::kPolicyUpdate, update);
      }
    }
    child_done = waitpid(pid, &wstatus, WNOHANG) == pid;
  }

  ASSERT_TRUE(child_done) << "producer never exited";
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "producer died by signal " << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "producer failed at step " << WEXITSTATUS(wstatus);

  // Three epochs of real observations arrived over the wire...
  EXPECT_GE(frames_seen, 3u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);
  EXPECT_EQ(aggregator.stats().rejected_hash, 0u);
  ASSERT_EQ(aggregator.EpochNames().size(), 3u);
  EXPECT_EQ(aggregator.EpochNames().back(), "e3");
  // ...and the full two-way lifecycle ran: promote, then cold-site demote.
  EXPECT_GE(aggregator.stats().promotions_emitted, 1u);
  EXPECT_EQ(aggregator.stats().demotions_emitted, 1u);
  EXPECT_TRUE(aggregator.rolling().Contains(kCandidateSite));

  server.Stop();
}

// --- provenance-checked artifacts close the loop ---

constexpr const char* kProgram = R"(
module fleet_app
untrusted "legacy"
extern @legacy_touch(1) lib "legacy"

func @main(0) {
entry:
  %0 = alloc 64
  store %0, 0, 7
  %1 = call @legacy_touch(%0)
  free %0
  ret %1
}
)";

ExternRegistry MakeExterns() {
  ExternRegistry externs;
  externs.Register("legacy_touch",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  return externs;
}

TEST(FleetE2eTest, ExportedArtifactPartitionsAnEnforcementBuild) {
  // Profiling run: record the shared site and the instrumented hash the
  // stream plane keys everything by.
  Profile profile;
  uint64_t ir_hash = 0;
  {
    SystemConfig config;
    config.mode = RuntimeMode::kProfiling;
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_TRUE((*system)->Call("main").ok());
    profile = (*system)->TakeProfile();
    ir_hash = (*system)->instrumented_ir_hash();
  }
  ASSERT_GT(profile.site_count(), 0u);
  ASSERT_NE(ir_hash, 0u);

  // Export: what `profile_tool aggregate --out` writes from its aggregate.
  ProfileArtifact artifact;
  artifact.ir_hash = ir_hash;
  artifact.profile = profile;
  artifact.epochs.push_back({"e2e-epoch", profile.site_count(), 1});
  const std::string path = ::testing::TempDir() + "/fleet_e2e_artifact.txt";
  ASSERT_TRUE(artifact.SaveToFile(path).ok());

  // Reload through System::Create: the artifact supplies the partition and
  // the enforcement run succeeds without a hand-fed profile.
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile_artifact = path;
    config.expected_epoch = "e2e-epoch";
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    auto result = (*system)->Call("main");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, 7);
  }

  // A stale expected epoch warns but still partitions.
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile_artifact = path;
    config.expected_epoch = "a-newer-epoch";
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    EXPECT_TRUE((*system)->Call("main").ok());
  }

  // The same sites recorded against DIFFERENT IR must be refused outright.
  ProfileArtifact tampered = artifact;
  tampered.ir_hash = ir_hash ^ 1;
  const std::string tampered_path = ::testing::TempDir() + "/fleet_e2e_tampered.txt";
  ASSERT_TRUE(tampered.SaveToFile(tampered_path).ok());
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile_artifact = tampered_path;
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_FALSE(system.ok());
    EXPECT_EQ(system.status().code(), StatusCode::kFailedPrecondition);
  }

  std::remove(path.c_str());
  std::remove(tampered_path.c_str());
}

}  // namespace
}  // namespace pkrusafe
