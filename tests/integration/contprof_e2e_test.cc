// End-to-end continuous profiling on the real-fault backend: a forked child
// runs ENFORCING with always-on sampled profiling, services a candidate-site
// fault via SIGSEGV, ships the observation as a frame log, applies
// the resulting promotion, and proves the promoted site stops faulting — all
// without a restart. The parent then drains the frame log, checks the
// promotion passes the static cross-check, and checks a crafted poisoned
// delta is rejected. A second child proves enforcement stayed live: a
// non-candidate access still dies with SIGSEGV.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/memmap/page.h"
#include "src/runtime/profile_delta.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/aggregator.h"
#include "src/telemetry/stream_net.h"

namespace pkrusafe {
namespace {

constexpr AllocId kCandidateSite{1, 0, 0};
constexpr AllocId kPrivateSite{2, 0, 0};
constexpr AllocId kPoisonSite{66, 6, 6};
constexpr uint64_t kIrHash = 0xc0ffee0ddba11;
constexpr const char* kEpoch = "e2e";

Result<std::unique_ptr<PkruSafeRuntime>> MakeSampledEnforcingRuntime() {
  RuntimeConfig config;
  config.backend = BackendKind::kMprotect;
  config.mode = RuntimeMode::kEnforcing;
  config.sampled_profiling = true;
  config.sampling.page_fraction = 1.0;               // observe every page
  config.sampling.service_ns_per_interval = ~uint64_t{0} / 2;
  config.sampling.fault_cost_ns = 1;
  config.sampling_candidates.insert(kCandidateSite);
  return PkruSafeRuntime::Create(std::move(config));
}

// Child 1: the full loop. Exits 0 on success, a distinct code per failure.
[[noreturn]] void ChildSampleStreamPromote(const std::string& stream_path) {
  auto runtime = MakeSampledEnforcingRuntime();
  if (!runtime.ok()) {
    _exit(10);
  }
  PkruSafeRuntime& rt = **runtime;

  void* big = rt.AllocTrusted(kCandidateSite, 4 * kPageSize);
  if (big == nullptr) {
    _exit(11);
  }
  const uintptr_t base = reinterpret_cast<uintptr_t>(big);
  const uintptr_t page = PageUp(base);  // 4-page object always fully covers it

  // A real SIGSEGV, serviced: the candidate read must complete and be
  // recorded, with the page still trapping afterwards (fraction = 1).
  {
    UntrustedScope scope(rt.gates());
    volatile unsigned char sink = *reinterpret_cast<unsigned char*>(page);
    (void)sink;
    sink = *reinterpret_cast<unsigned char*>(page + 8);
  }
  const RuntimeStats sampled = rt.stats();
  if (sampled.sampled_recorded < 2 || sampled.sampled_trapping < 2) {
    _exit(12);
  }
  if (!rt.TakeProfile().Contains(kCandidateSite)) {
    _exit(13);
  }

  // Ship the observation as a delta stream (what the sampler tick does).
  ProfileStreamWriter::Options options;
  options.path = stream_path;
  options.epoch = kEpoch;
  options.ir_hash = kIrHash;
  ProfileStreamWriter writer(std::move(options));
  if (!writer.Open().ok() || !writer.Flush(rt.TakeProfile()).ok()) {
    _exit(14);
  }
  writer.Close();

  // Apply the promotion the aggregator would hand back: the page is re-keyed
  // in place, so further accesses must NOT re-enter the fault path.
  const auto result = rt.ApplyPromotions({kCandidateSite});
  if (result.promoted != 1 || result.pages_opened < 3) {
    _exit(15);
  }
  const RuntimeStats before = rt.stats();
  {
    UntrustedScope scope(rt.gates());
    volatile unsigned char sink = *reinterpret_cast<unsigned char*>(page);
    (void)sink;
    sink = *reinterpret_cast<unsigned char*>(page + kPageSize);
  }
  const RuntimeStats after = rt.stats();
  if (after.sampled_faults != before.sampled_faults) {
    _exit(16);  // promoted site faulted again
  }
  rt.Free(big);
  _exit(0);
}

// Child 2: enforcement is still enforcement. A site outside the candidate
// set dies, sampled profiling or not.
[[noreturn]] void ChildNonCandidateDies() {
  auto runtime = MakeSampledEnforcingRuntime();
  if (!runtime.ok()) {
    _exit(10);
  }
  PkruSafeRuntime& rt = **runtime;
  void* obj = rt.AllocTrusted(kPrivateSite, 64);
  if (obj == nullptr) {
    _exit(11);
  }
  UntrustedScope scope(rt.gates());
  *static_cast<volatile unsigned char*>(obj) = 0x5A;  // must not return
  _exit(12);
}

TEST(ContinuousProfilingE2eTest, SampledFaultStreamsAggregatesAndPromotes) {
  const std::string stream_path = ::testing::TempDir() + "/contprof_e2e_stream.psf";
  const std::string poison_path = ::testing::TempDir() + "/contprof_e2e_poison.psf";
  std::remove(stream_path.c_str());
  std::remove(poison_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ChildSampleStreamPromote(stream_path);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "child died by signal " << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : -1);
  ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child failed at step " << WEXITSTATUS(wstatus);

  // A poisoned producer claims a site the static analysis never allowed.
  {
    ProfileDelta poison(kEpoch, kIrHash, 0);
    poison.Add(kPoisonSite, 1000);
    std::FILE* out = std::fopen(poison_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    const std::string frame =
        telemetry::EncodeFrame(telemetry::FrameType::kProfileDelta, poison.EncodeBinary());
    std::fwrite(frame.data(), 1, frame.size(), out);
    std::fclose(out);
  }

  // Aggregate both streams against the static bound: the child's observation
  // promotes; the poisoned one is rejected and diagnosed.
  telemetry::AggregatorOptions options;
  options.expected_ir_hash = kIrHash;
  options.static_shared.insert(kCandidateSite);
  telemetry::ProfileAggregator aggregator(std::move(options));
  telemetry::FrameIngest files(&aggregator);
  files.AddFile(stream_path);
  files.AddFile(poison_path);

  std::vector<telemetry::PromotionCandidate> promotions;
  EXPECT_EQ(files.PollFiles(&promotions), 3u);  // the child's hello and delta, the poison
  EXPECT_EQ(aggregator.stats().deltas_applied, 2u);  // both deltas decode and fold in

  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kCandidateSite);
  EXPECT_GE(promotions[0].count, 2u);  // both serviced reads were observed

  EXPECT_GE(aggregator.stats().promotions_rejected_static, 1u);
  bool diagnosed = false;
  for (const auto& finding : aggregator.diagnostics().findings()) {
    if (finding.rule == "promotion-outside-static") {
      diagnosed = true;
    }
  }
  EXPECT_TRUE(diagnosed);

  // Per-epoch provenance followed the stream's epoch stamp.
  ASSERT_NE(aggregator.EpochProfile(kEpoch), nullptr);
  EXPECT_TRUE(aggregator.EpochProfile(kEpoch)->Contains(kCandidateSite));

  std::remove(stream_path.c_str());
  std::remove(poison_path.c_str());
}

TEST(ContinuousProfilingE2eTest, NonCandidateStillDiesUnderSampling) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ChildNonCandidateDies();
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child did not die by signal; exit code "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
  EXPECT_EQ(WTERMSIG(wstatus), SIGSEGV);
}

}  // namespace
}  // namespace pkrusafe
