// Tests for the §6 "Stack Protection" extension: kStackAlloc gives
// function-scoped data the same provenance/profiling treatment as heap data,
// with automatic release on every exit path.
#include <gtest/gtest.h>

#include "src/analysis/points_to.h"
#include "src/core/pkru_safe.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"

namespace pkrusafe {
namespace {

ExternRegistry SinkExterns() {
  ExternRegistry externs;
  externs.Register("sink",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  return externs;
}

constexpr const char* kStackProgram = R"(
module stackdemo
untrusted "u"
extern @sink(1) lib "u"

func @leaf(0) {
e:
  %0 = stackalloc 64     ; shared with U
  %1 = stackalloc 64     ; private frame data
  store %0, 0, 21
  store %1, 0, 9000
  %2 = call @sink(%0)
  %3 = load %1, 0
  %4 = add %2, %3
  ret %4
}

func @main(0) {
e:
  %0 = call @leaf()
  %1 = call @leaf()
  %2 = add %0, %1
  ret %2
}
)";

TEST(StackProtectionTest, ParsesPrintsAndVerifies) {
  auto module = ParseModule(kStackProgram);
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  EXPECT_TRUE(VerifyModule(*module).ok());
  const std::string printed = PrintModule(*module);
  EXPECT_NE(printed.find("stackalloc 64"), std::string::npos);
  auto reparsed = ParseModule(printed);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(PrintModule(*reparsed), printed);
}

TEST(StackProtectionTest, VerifierChecksShape) {
  EXPECT_FALSE(ParseModule("func @f(0) {\ne:\n  stackalloc 8\n  ret\n}\n").ok() &&
               VerifyModule(*ParseModule("func @f(0) {\ne:\n  stackalloc 8\n  ret\n}\n")).ok());
  auto bad = ParseModule("func @f(0) {\ne:\n  %0 = stackalloc 8, 9\n  ret\n}\n");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(VerifyModule(*bad).ok());
}

TEST(StackProtectionTest, EnforcementDeniesUnprofiledStackSharing) {
  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  auto system = System::Create(kStackProgram, config, SinkExterns());
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->Call("main").status().code(), StatusCode::kPermissionDenied);
}

TEST(StackProtectionTest, ProfilingDiscoversSharedStackSlotOnly) {
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(kStackProgram, config, SinkExterns());
  ASSERT_TRUE(system.ok());
  auto result = (*system)->Call("main");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 2 * (21 + 9000));

  Profile profile = (*system)->TakeProfile();
  EXPECT_EQ(profile.site_count(), 1u);
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 0}));  // @leaf's %0
}

TEST(StackProtectionTest, FullPipelineMovesStackSlotToSharedPool) {
  Profile profile;
  {
    SystemConfig config;
    config.mode = RuntimeMode::kProfiling;
    auto system = System::Create(kStackProgram, config, SinkExterns());
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)->Call("main").ok());
    profile = (*system)->TakeProfile();
  }
  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile = profile;
  auto system = System::Create(kStackProgram, config, SinkExterns());
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->sites_moved_to_untrusted(), 1u);
  EXPECT_NE((*system)->DumpIr().find("stackalloc_untrusted"), std::string::npos);
  auto result = (*system)->Call("main");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 2 * (21 + 9000));
}

TEST(StackProtectionTest, FrameAllocationsAreReleasedOnReturn) {
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(kStackProgram, config, SinkExterns());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->Call("main").ok());
  // Both @leaf activations allocated two slots each; all must be gone.
  size_t tagged = 0;
  (*system)->runtime().allocator().ForEachTagged([&](const TaggedBlock&) {
    ++tagged;
    return true;
  });
  EXPECT_EQ(tagged, 0u);
  const HeapStats trusted = (*system)->runtime().allocator().trusted_stats();
  EXPECT_EQ(trusted.live_bytes, 0u);
  EXPECT_EQ(trusted.alloc_calls, trusted.free_calls);
}

TEST(StackProtectionTest, FrameAllocationsAreReleasedOnErrorUnwind) {
  constexpr const char* kFailing = R"(
func @boom(0) {
e:
  %0 = stackalloc 64
  %1 = div 1, 0
  ret %1
}
)";
  SystemConfig config;
  auto system = System::Create(kFailing, config, {});
  ASSERT_TRUE(system.ok());
  EXPECT_FALSE((*system)->Call("boom").ok());
  EXPECT_EQ((*system)->runtime().allocator().trusted_stats().live_bytes, 0u);
}

TEST(StackProtectionTest, StaticAnalysisSeesStackSites) {
  auto module = ParseModule(kStackProgram);
  ASSERT_TRUE(module.ok());
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  ASSERT_TRUE(pm.Run(*module).ok());
  analysis::PointsToAnalysis analysis(&*module);
  ASSERT_TRUE(analysis.Run().ok());
  EXPECT_EQ(analysis.SharedSites(), (std::vector<AllocId>{AllocId{0, 0, 0}}));
}

TEST(StackProtectionTest, RecursionGetsFreshFrames) {
  constexpr const char* kRecursive = R"(
func @down(1) {
e:
  %1 = stackalloc 32
  store %1, 0, %0
  %2 = cmpgt %0, 0
  brif %2, rec, base
rec:
  %3 = sub %0, 1
  %4 = call @down(%3)
  %5 = load %1, 0        ; our frame's slot must be intact after the call
  %6 = add %4, %5
  ret %6
base:
  %7 = load %1, 0
  ret %7
}
)";
  SystemConfig config;
  auto system = System::Create(kRecursive, config, {});
  ASSERT_TRUE(system.ok());
  auto result = (*system)->Call("down", {10});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 55);  // 10+9+...+0
  EXPECT_EQ((*system)->runtime().allocator().trusted_stats().live_bytes, 0u);
}

}  // namespace
}  // namespace pkrusafe
