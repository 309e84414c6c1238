#include "src/analysis/lint.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"

namespace pkrusafe {
namespace analysis {
namespace {

IrModule Prepare(const char* source, bool insert_gates) {
  auto module = ParseModule(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  if (insert_gates) {
    pm.Add(std::make_unique<GateInsertionPass>());
  }
  EXPECT_TRUE(pm.Run(*module).ok());
  return std::move(*module);
}

struct Linted {
  IrModule module;
  PointsToAnalysis pts;
  DiagnosticSink sink;

  Linted(const char* source, bool insert_gates, const Profile* profile = nullptr)
      : module(Prepare(source, insert_gates)), pts(&module) {
    EXPECT_TRUE(pts.Run().ok());
    RunAllLints(module, pts, profile, sink);
  }
};

size_t CountRule(const DiagnosticSink& sink, const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : sink.findings()) {
    if (f.rule == rule) {
      ++n;
    }
  }
  return n;
}

constexpr char kBoundaryModule[] = R"(
untrusted "u"
extern @sink(1) lib "u"
extern @t_log(1)
func @main(0) {
e:
  %0 = alloc 8
  call @sink(%0)
  call @t_log(%0)
  ret
}
)";

TEST(LintTest, MissingGateFiresOnUngatedBoundaryCall) {
  Linted l(kBoundaryModule, /*insert_gates=*/false);
  ASSERT_EQ(CountRule(l.sink, "missing-gate"), 1u);
  const Finding* finding = nullptr;
  for (const Finding& f : l.sink.findings()) {
    if (f.rule == "missing-gate") finding = &f;
  }
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, Severity::kError);
  EXPECT_EQ(finding->function, "main");
  EXPECT_NE(finding->message.find("sink"), std::string::npos);
}

TEST(LintTest, MissingGateSilentAfterGateInsertion) {
  Linted l(kBoundaryModule, /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "missing-gate"), 0u);
}

TEST(LintTest, RedundantGateFiresWhenNoTrustedMemoryIsReachable) {
  // The gated call only passes an untrusted-heap pointer and a constant: the
  // gate protects nothing U could not already touch.
  Linted l(R"(
untrusted "u"
extern @sink(2) lib "u"
func @main(0) {
e:
  %0 = alloc_untrusted 8
  call @sink(%0, 7)
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "redundant-gate"), 1u);
}

TEST(LintTest, RedundantGateSilentWhenTrustedMemoryCrosses) {
  Linted l(kBoundaryModule, /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "redundant-gate"), 0u);
}

TEST(LintTest, TrustedLeakFiresOnPublishedTrustedPointer) {
  Linted l(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8     ; mailbox, shared
  %1 = alloc 8     ; secret
  call @sink(%0)
  store %0, 0, %1  ; publishes a trusted pointer into U-reachable memory
  ret
}
)",
           /*insert_gates=*/true);
  ASSERT_EQ(CountRule(l.sink, "trusted-leak"), 1u);
  for (const Finding& f : l.sink.findings()) {
    if (f.rule != "trusted-leak") continue;
    EXPECT_EQ(f.severity, Severity::kWarning);
    ASSERT_TRUE(f.site.has_value());
    EXPECT_EQ(*f.site, (AllocId{0, 0, 1}));  // the leaked secret's site
  }
}

TEST(LintTest, TrustedLeakSilentForPrivateStores) {
  Linted l(R"(
func @main(0) {
e:
  %0 = alloc 8
  %1 = alloc 8
  store %0, 0, %1
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "trusted-leak"), 0u);
}

TEST(LintTest, StaleProfileSiteFiresOnUnknownAllocId) {
  Profile profile;
  profile.Add(AllocId{0, 0, 0});   // real site
  profile.Add(AllocId{7, 3, 42});  // nothing like this in the module
  Linted l(R"(
func @main(0) {
e:
  %0 = alloc 8
  ret
}
)",
           /*insert_gates=*/true, &profile);
  ASSERT_EQ(CountRule(l.sink, "stale-profile-site"), 1u);
  for (const Finding& f : l.sink.findings()) {
    if (f.rule != "stale-profile-site") continue;
    EXPECT_EQ(f.severity, Severity::kError);
    ASSERT_TRUE(f.site.has_value());
    EXPECT_EQ(*f.site, (AllocId{7, 3, 42}));
  }
}

TEST(LintTest, StaleProfileSiteSilentForMatchingProfile) {
  Profile profile;
  profile.Add(AllocId{0, 0, 0});
  Linted l(R"(
func @main(0) {
e:
  %0 = alloc 8
  ret
}
)",
           /*insert_gates=*/true, &profile);
  EXPECT_EQ(CountRule(l.sink, "stale-profile-site"), 0u);
}

TEST(LintTest, FreeAcrossDomainFiresOnMixedProvenance) {
  // %2 may hold the trusted or the untrusted allocation (flow-insensitive
  // register reuse): freeing it crosses domains on one of the two paths.
  Linted l(R"(
func @main(0) {
e:
  %0 = alloc 8
  %1 = alloc_untrusted 8
  %2 = add %0, 0
  %2 = add %1, 0
  free %2
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "free-across-domain"), 1u);
}

TEST(LintTest, FreeAcrossDomainFiresOnUOwnedPointer) {
  Linted l(R"(
untrusted "u"
extern @give(0) lib "u"
func @main(0) {
e:
  %0 = call @give()
  free %0
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "free-across-domain"), 1u);
}

TEST(LintTest, FreeAcrossDomainFiresOnStackPointer) {
  Linted l(R"(
func @main(0) {
e:
  %0 = stackalloc 8
  free %0
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "free-across-domain"), 1u);
}

TEST(LintTest, FreeAcrossDomainSilentForPlainHeapFree) {
  Linted l(R"(
func @main(0) {
e:
  %0 = alloc 8
  free %0
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_EQ(CountRule(l.sink, "free-across-domain"), 0u);
}

TEST(LintTest, TextRenderingNamesRuleSeverityAndHint) {
  Linted l(kBoundaryModule, /*insert_gates=*/false);
  std::ostringstream out;
  RenderFindingsText(out, l.sink.findings());
  const std::string text = out.str();
  EXPECT_NE(text.find("error[missing-gate]"), std::string::npos);
  EXPECT_NE(text.find("@main"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
}

TEST(LintTest, JsonRenderingCarriesFindingsAndSummary) {
  Linted l(kBoundaryModule, /*insert_gates=*/false);
  std::ostringstream out;
  RenderFindingsJson(out, l.sink.findings(), [](json::Writer& w) {
    w.Key("precision").BeginObject().Key("ratio").Number("1.0").EndObject();
  });
  const std::string json = out.str();
  EXPECT_NE(json.find("\"rule\":\"missing-gate\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"precision\""), std::string::npos);
}

TEST(LintTest, CleanModuleProducesNoFindings) {
  Linted l(R"(
untrusted "u"
extern @sink(1) lib "u"
func @main(0) {
e:
  %0 = alloc 8
  call @sink(%0)
  ret
}
)",
           /*insert_gates=*/true);
  EXPECT_TRUE(l.sink.empty()) << [&] {
    std::ostringstream out;
    RenderFindingsText(out, l.sink.findings());
    return out.str();
  }();
}

}  // namespace
}  // namespace analysis
}  // namespace pkrusafe
