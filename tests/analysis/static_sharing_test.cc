// The static sharing analysis (PointsToAnalysis::SharedSites()) as the
// compile-time replacement for a profiling run: what it shares, what it
// keeps private, that it over-approximates the dynamic profile, and that its
// answer drives an enforcement build.
#include <gtest/gtest.h>

#include "src/analysis/points_to.h"
#include "src/core/pkru_safe.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

using analysis::PointsToAnalysis;

IrModule Prepare(const char* source) {
  auto module = ParseModule(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  EXPECT_TRUE(pm.Run(*module).ok());
  return std::move(*module);
}

// The static profile: every shared site, counted once.
Profile Analyze(const char* source) {
  IrModule module = Prepare(source);
  PointsToAnalysis analysis(&module);
  const Status status = analysis.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  Profile profile;
  for (const AllocId& id : analysis.SharedSites()) {
    profile.Add(id);
  }
  return profile;
}

TEST(StaticSharingTest, DirectArgumentIsShared) {
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  %1 = alloc 8
  call @sink(%0)
  free %1
  ret
}
)");
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 0}));
  EXPECT_FALSE(profile.Contains(AllocId{0, 0, 1}));
}

TEST(StaticSharingTest, TaintFlowsThroughArithmetic) {
  // Pointer arithmetic before the sink must not lose the taint.
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 64
  %1 = add %0, 16
  call @sink(%1)
  ret
}
)");
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 0}));
}

TEST(StaticSharingTest, TaintFlowsThroughCalls) {
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @make(0) {
e:
  %0 = alloc 8
  ret %0
}
func @pass_through(1) {
e:
  ret %0
}
func @main(0) {
e:
  %0 = call @make()
  %1 = call @pass_through(%0)
  call @sink(%1)
  ret
}
)");
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 0}));  // @make's alloc
  EXPECT_EQ(profile.site_count(), 1u);
}

TEST(StaticSharingTest, PointerStoredInSharedObjectBecomesShared) {
  // U receives object A; object B's pointer is stored inside A, so U can
  // reach B too (aggregate-type sharing, §3.4's indirect references).
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 64
  %1 = alloc 64
  call @sink(%0)
  store %0, 0, %1
  ret
}
)");
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 0}));
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 1}));
}

TEST(StaticSharingTest, PrivateChainStaysPrivate) {
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 64
  %1 = alloc 64
  store %0, 0, %1    ; B inside A, but A never crosses
  %2 = alloc 8
  call @sink(%2)
  ret
}
)");
  EXPECT_FALSE(profile.Contains(AllocId{0, 0, 0}));
  EXPECT_FALSE(profile.Contains(AllocId{0, 0, 1}));
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 2}));
}

TEST(StaticSharingTest, TrustedExternsDoNotLeak) {
  Profile profile = Analyze(R"(
extern @trusted_helper(1)
func @main(0) {
e:
  %0 = alloc 8
  call @trusted_helper(%0)
  ret
}
)");
  EXPECT_TRUE(profile.empty());
}

TEST(StaticSharingTest, OverApproximatesBranchDependentFlow) {
  // Static analysis cannot tell the branch is never taken: it must share
  // (sound over-approximation, §6's "dramatically over-approximated" case
  // in miniature). A dynamic profile of the same program stays empty.
  const char* source = R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  %1 = const 0
  brif %1, taken, skip
taken:
  call @sink(%0)
  ret
skip:
  free %0
  ret
}
)";
  Profile static_profile = Analyze(source);
  EXPECT_TRUE(static_profile.Contains(AllocId{0, 0, 0}));

  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  ExternRegistry externs;
  externs.Register("sink", [](Interpreter&, const std::vector<int64_t>&) -> Result<int64_t> {
    return 0;
  });
  auto system = System::Create(source, config, std::move(externs));
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->Call("main").ok());
  EXPECT_TRUE((*system)->TakeProfile().empty());
}

TEST(StaticSharingTest, RequiresAllocIds) {
  auto module = ParseModule("func @f(0) {\ne:\n  %0 = alloc 8\n  ret\n}\n");
  ASSERT_TRUE(module.ok());
  PointsToAnalysis analysis(&*module);
  EXPECT_EQ(analysis.Run().code(), StatusCode::kFailedPrecondition);
}

// The key property: static ⊇ dynamic on the same module, here exercised on a
// program with both real and never-executed flows.
TEST(StaticSharingTest, StaticProfileIsSupersetOfDynamic) {
  const char* source = R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(1) {
e:
  %1 = alloc 8
  %2 = alloc 8
  call @sink(%1)
  brif %0, extra, done
extra:
  call @sink(%2)
  ret
done:
  ret
}
)";
  Profile static_profile = Analyze(source);

  ExternRegistry externs;
  externs.Register("sink",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(source, config, std::move(externs));
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->Call("main", {0}).ok());  // skip the extra branch
  Profile dynamic_profile = (*system)->TakeProfile();

  for (const AllocId& id : dynamic_profile.Sites()) {
    EXPECT_TRUE(static_profile.Contains(id)) << id.ToString();
  }
  EXPECT_GT(static_profile.site_count(), dynamic_profile.site_count());
}

TEST(StaticSharingTest, PublishesAnalysisMetricsToTelemetry) {
  const auto before = telemetry::MetricsRegistry::Global().Snapshot();
  const auto count = [](const telemetry::MetricsSnapshot& snapshot, const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? uint64_t{0} : it->second;
  };
  Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  %1 = alloc 8
  call @sink(%0)
  ret
}
)");
  const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(count(snapshot, "analysis.static_sharing.runs"),
            count(before, "analysis.static_sharing.runs") + 1);
  EXPECT_GT(count(snapshot, "analysis.static_sharing.iterations_total"),
            count(before, "analysis.static_sharing.iterations_total"));
  EXPECT_GE(snapshot.gauges.at("analysis.static_sharing.iterations"), 1);
  EXPECT_EQ(snapshot.gauges.at("analysis.static_sharing.shared_sites"), 1);
  EXPECT_EQ(snapshot.gauges.at("analysis.points_to.objects"), 3);  // 2 sites + external
  EXPECT_GT(snapshot.gauges.at("analysis.points_to.edges"), 0);
}

TEST(StaticSharingTest, UnrelatedLoadDoesNotSharePrivateChain) {
  // A pointer parked in a private object is not loaded back through an
  // unrelated shared buffer: the load reads the contents of the object it
  // loads from. (The retired one-cell model, one memory cell for the whole
  // module, shared the parked pointer here.)
  Profile profile = Analyze(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  %1 = alloc 8
  store %0, 0, %1
  %2 = alloc 8
  %3 = load %2, 0
  call @sink(%3)
  call @sink(%2)
  ret
}
)");
  EXPECT_TRUE(profile.Contains(AllocId{0, 0, 2}));
  EXPECT_FALSE(profile.Contains(AllocId{0, 0, 0}));
  EXPECT_FALSE(profile.Contains(AllocId{0, 0, 1}));
  EXPECT_EQ(profile.site_count(), 1u);
}

TEST(StaticSharingTest, StaticProfileDrivesEnforcementBuild) {
  // End to end without any profiling run: the statically computed profile
  // makes the enforcement build work on the first try.
  const char* source = R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  store %0, 0, 5
  %1 = call @sink(%0)
  ret %1
}
)";
  Profile static_profile = Analyze(source);

  ExternRegistry externs;
  externs.Register("sink",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  SystemConfig config;
  config.mode = RuntimeMode::kEnforcing;
  config.profile = static_profile;
  auto system = System::Create(source, config, std::move(externs));
  ASSERT_TRUE(system.ok());
  auto result = (*system)->Call("main");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 5);
}

}  // namespace
}  // namespace pkrusafe
