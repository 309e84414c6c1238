#include "src/core/pkru_safe.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/runtime/profile_artifact.h"

namespace pkrusafe {
namespace {

constexpr const char* kProgram = R"(
module app
untrusted "legacy"
extern @legacy_touch(1) lib "legacy"
extern @trusted_log(1)

func @main(0) {
entry:
  %0 = alloc 64          ; will be shared
  %1 = alloc 64          ; stays private
  store %0, 0, 7
  store %1, 0, 9
  %2 = call @legacy_touch(%0)
  %3 = load %1, 0
  %4 = call @trusted_log(%3)
  %5 = add %2, %3
  free %0
  free %1
  ret %5
}
)";

ExternRegistry MakeExterns() {
  ExternRegistry externs;
  externs.Register("legacy_touch",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     PS_ASSIGN_OR_RETURN(int64_t value, interp.LoadChecked(args[0]));
                     PS_RETURN_IF_ERROR(interp.StoreChecked(args[0], value * 2));
                     return value;
                   });
  externs.Register("trusted_log",
                   [](Interpreter&, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return args[0];
                   });
  return externs;
}

TEST(SystemTest, ReportsInstrumentationStats) {
  SystemConfig config;
  auto system = System::Create(kProgram, config, MakeExterns());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->total_alloc_sites(), 2u);
  EXPECT_EQ((*system)->gates_inserted(), 1u);  // only the legacy call
  EXPECT_EQ((*system)->sites_moved_to_untrusted(), 0u);
}

TEST(SystemTest, DisabledModeRuns) {
  SystemConfig config;
  auto system = System::Create(kProgram, config, MakeExterns());
  ASSERT_TRUE(system.ok());
  auto result = (*system)->Call("main");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 16);  // legacy returns 7, private holds 9
}

TEST(SystemTest, FullPipelineMatchesE1) {
  // Step 1: enforcement without a profile denies the legacy access.
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok());
    EXPECT_EQ((*system)->Call("main").status().code(), StatusCode::kPermissionDenied);
  }
  // Step 2: profiling run records the shared site.
  Profile profile;
  {
    SystemConfig config;
    config.mode = RuntimeMode::kProfiling;
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok());
    auto result = (*system)->Call("main");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    profile = (*system)->TakeProfile();
    EXPECT_EQ(profile.site_count(), 1u);
  }
  // Step 3: enforcement with the profile runs clean and rewrites one site.
  {
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile = profile;
    auto system = System::Create(kProgram, config, MakeExterns());
    ASSERT_TRUE(system.ok());
    EXPECT_EQ((*system)->sites_moved_to_untrusted(), 1u);
    auto result = (*system)->Call("main");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, 16);
  }
}

TEST(SystemTest, DumpIrShowsInstrumentation) {
  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile.Add(AllocId{0, 0, 0});
  auto system = System::Create(kProgram, config, MakeExterns());
  ASSERT_TRUE(system.ok());
  const std::string ir = (*system)->DumpIr();
  EXPECT_NE(ir.find("alloc_untrusted"), std::string::npos);
  EXPECT_NE(ir.find("; gated"), std::string::npos);
  EXPECT_NE(ir.find("; site 0:0:1"), std::string::npos);
}

TEST(SystemTest, ArtifactUnionsWithInMemoryProfileAndIsBoundToItsModule) {
  auto profiled = System::Create(kProgram, {}, MakeExterns());
  ASSERT_TRUE(profiled.ok());
  ProfileArtifact artifact;
  artifact.ir_hash = (*profiled)->instrumented_ir_hash();
  artifact.profile.Add(AllocId{0, 0, 0});
  const std::string path = ::testing::TempDir() + "/system_test.artifact";
  ASSERT_TRUE(artifact.SaveToFile(path).ok());

  // The artifact's site and an in-memory (e.g. static) site both apply.
  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile.Add(AllocId{0, 0, 1});
  config.profile_artifact = path;
  auto system = System::Create(kProgram, config, MakeExterns());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ((*system)->sites_moved_to_untrusted(), 2u);
  EXPECT_TRUE((*system)->Call("main").ok());

  // The same file against another module is refused.
  const std::string other = std::string(kProgram) + "func @extra(0) {\ne:\n  ret 0\n}\n";
  auto foreign = System::Create(other, config, MakeExterns());
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SystemTest, RejectsInvalidIr) {
  EXPECT_FALSE(System::Create("func @broken(0) {\n}", {}, {}).ok());
  EXPECT_FALSE(System::Create("gibberish", {}, {}).ok());
}

TEST(SystemTest, CallUnknownFunctionFails) {
  auto system = System::Create(kProgram, {}, MakeExterns());
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->Call("nope").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pkrusafe
