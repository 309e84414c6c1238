// Deployment-style integration tests (paper §6): profiles from a subset of
// the "installation base" are merged before the enforcement build, SELinux
// permissive/enforcing style. Also covers the drastic gate-everything policy
// of §3.2.
#include <gtest/gtest.h>

#include "src/core/pkru_safe.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/runtime/profile_artifact.h"

namespace pkrusafe {
namespace {

// The application has three user-selectable features, each flowing a
// different allocation into the unsafe library; feature 3 is exercised by
// nobody in the profiling population.
constexpr const char* kApp = R"(
module app
untrusted "codec"
extern @codec_consume(1) lib "codec"

func @feature(1) {
e:
  %1 = cmpeq %0, 0
  brif %1, f0, next1
next1:
  %2 = cmpeq %0, 1
  brif %2, f1, next2
next2:
  %3 = cmpeq %0, 2
  brif %3, f2, f3
f0:
  %4 = alloc 32
  store %4, 0, 100
  %5 = call @codec_consume(%4)
  ret %5
f1:
  %6 = alloc 32
  store %6, 0, 200
  %7 = call @codec_consume(%6)
  ret %7
f2:
  %8 = alloc 32
  store %8, 0, 300
  %9 = call @codec_consume(%8)
  ret %9
f3:
  %10 = alloc 32
  store %10, 0, 400
  %11 = call @codec_consume(%10)
  ret %11
}
)";

ExternRegistry CodecExterns() {
  ExternRegistry externs;
  externs.Register("codec_consume",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  return externs;
}

Profile ProfileUser(const std::vector<int64_t>& features) {
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(kApp, config, CodecExterns());
  EXPECT_TRUE(system.ok());
  for (const int64_t feature : features) {
    auto result = (*system)->Call("feature", {feature});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  return (*system)->TakeProfile();
}

ProfileArtifact UserArtifact(const std::vector<int64_t>& features, const std::string& epoch) {
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(kApp, config, CodecExterns());
  EXPECT_TRUE(system.ok());
  ProfileArtifact artifact;
  artifact.ir_hash = (*system)->instrumented_ir_hash();
  artifact.profile = ProfileUser(features);
  artifact.epochs.push_back(
      {epoch, artifact.profile.site_count(), artifact.profile.TotalCount()});
  return artifact;
}

TEST(DeploymentTest, MergedTelemetryCoversTheUnionOfBehaviours) {
  // Three users exercise overlapping feature subsets; nobody uses feature 3.
  Profile merged;
  merged.Merge(ProfileUser({0}));
  merged.Merge(ProfileUser({1}));
  merged.Merge(ProfileUser({0, 2}));
  EXPECT_EQ(merged.site_count(), 3u);

  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile = merged;
  auto system = System::Create(kApp, config, CodecExterns());
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->sites_moved_to_untrusted(), 3u);

  // Every profiled behaviour runs clean for every user.
  EXPECT_EQ(*(*system)->Call("feature", {0}), 100);
  EXPECT_EQ(*(*system)->Call("feature", {1}), 200);
  EXPECT_EQ(*(*system)->Call("feature", {2}), 300);

  // The behaviour telemetry never saw still faults — the §6 caveat: crashes
  // from missed inter-compartment flows are profiling-coverage bugs.
  EXPECT_EQ((*system)->Call("feature", {3}).status().code(), StatusCode::kPermissionDenied);
}

TEST(DeploymentTest, SerializedTelemetryRoundTripsThroughFiles) {
  // Each user ships an artifact keyed by the instrumented IR hash; the
  // merged artifact drives the enforcement build.
  const std::string dir = ::testing::TempDir();
  const std::string a_path = dir + "/user_a.artifact";
  const std::string b_path = dir + "/user_b.artifact";
  const std::string merged_path = dir + "/merged.artifact";
  ASSERT_TRUE(UserArtifact({0}, "user-a").SaveToFile(a_path).ok());
  ASSERT_TRUE(UserArtifact({1, 2}, "user-b").SaveToFile(b_path).ok());

  auto a = ProfileArtifact::LoadFromFile(a_path);
  auto b = ProfileArtifact::LoadFromFile(b_path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ProfileArtifact merged = *a;
  ASSERT_TRUE(merged.MergeFrom(*b).ok());
  EXPECT_EQ(merged.profile.site_count(), 3u);
  ASSERT_EQ(merged.epochs.size(), 2u);
  EXPECT_EQ(merged.NewestEpoch(), "user-b");
  ASSERT_TRUE(merged.SaveToFile(merged_path).ok());

  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile_artifact = merged_path;
  auto system = System::Create(kApp, config, CodecExterns());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->sites_moved_to_untrusted(), 3u);

  // A profile recorded against another build never merges in.
  ProfileArtifact foreign = *b;
  foreign.ir_hash ^= 1;
  EXPECT_EQ(merged.MergeFrom(foreign).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(merged.profile.site_count(), 3u);
  EXPECT_EQ(merged.epochs.size(), 2u);
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
  std::remove(merged_path.c_str());
}

TEST(DeploymentTest, GateAllExternsPolicyDistrustsTheWholeFfiSurface) {
  constexpr const char* kTwoLibs = R"(
untrusted "codec"
extern @codec_consume(1) lib "codec"
extern @sys_helper(1) lib "system"
func @main(0) {
e:
  %0 = alloc 16
  %1 = call @sys_helper(%0)
  ret %1
}
)";
  // Default policy: only the annotated library is gated.
  {
    auto module = ParseModule(kTwoLibs);
    ASSERT_TRUE(module.ok());
    PassManager pm;
    pm.Add(std::make_unique<AllocIdPass>());
    auto gates = std::make_unique<GateInsertionPass>();
    auto* gates_ptr = gates.get();
    pm.Add(std::move(gates));
    ASSERT_TRUE(pm.Run(*module).ok());
    EXPECT_EQ(gates_ptr->gates_inserted(), 0u);  // @sys_helper stays trusted
  }
  // Drastic policy (§3.2): every FFI call is gated.
  {
    auto module = ParseModule(kTwoLibs);
    ASSERT_TRUE(module.ok());
    PassManager pm;
    pm.Add(std::make_unique<AllocIdPass>());
    auto gates = std::make_unique<GateInsertionPass>(/*gate_all_externs=*/true);
    auto* gates_ptr = gates.get();
    pm.Add(std::move(gates));
    ASSERT_TRUE(pm.Run(*module).ok());
    EXPECT_EQ(gates_ptr->gates_inserted(), 1u);
    EXPECT_TRUE(module->functions[0].blocks[0].instructions[1].gated);
  }
}

TEST(DeploymentTest, GateAllPolicyChangesEnforcementOutcome) {
  // Under gate-everything, the un-annotated system library also loses access
  // to M_T (it runs behind a gate), so passing it trusted memory faults.
  constexpr const char* kTwoLibs = R"(
extern @sys_helper(1) lib "system"
func @main(0) {
e:
  %0 = alloc 16
  store %0, 0, 5
  %1 = call @sys_helper(%0)
  ret %1
}
)";
  ExternRegistry externs;
  externs.Register("sys_helper",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });

  // Default pipeline via System: no untrusted annotation -> no gate -> works.
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    auto system = System::Create(kTwoLibs, config, std::move(externs));
    ASSERT_TRUE(system.ok());
    auto result = (*system)->Call("main");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, 5);
  }
}

}  // namespace
}  // namespace pkrusafe
