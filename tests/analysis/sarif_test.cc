// SARIF 2.1.0 exporter tests: structural checks on the generated document
// plus byte-for-byte golden comparisons (SARIF over a seeded-violation
// module, findings JSON and SARIF over a corpus module run through every
// lint), so any drift in the export formats is a visible diff.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/analysis/diagnostics.h"
#include "src/analysis/lint.h"
#include "src/analysis/pkru_flow.h"
#include "src/analysis/points_to.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/support/string_util.h"
#include "tests/golden_file.h"

#ifndef PKRUSAFE_EXAMPLES_IR_DIR
#error "build must define PKRUSAFE_EXAMPLES_IR_DIR"
#endif

namespace pkrusafe {
namespace analysis {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SarifTest, EmptyFindingsIsAValidEmptyRun) {
  std::ostringstream out;
  RenderFindingsSarif(out, {});
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"pkrusafe_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
}

TEST(SarifTest, FindingMapsToResultWithRuleLevelAndLocation) {
  Finding f;
  f.severity = Severity::kWarning;
  f.rule = "trusted-leak";
  f.function = "main";
  f.block = "entry";
  f.instr_index = 3;
  f.message = "a \"quoted\" message";
  f.fix_hint = "do\tless";

  std::ostringstream out;
  RenderFindingsSarif(out, {f}, "mod.ir");
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"ruleId\":\"trusted-leak\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\":\"@main/entry#3\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"mod.ir\""), std::string::npos);
  // JSON escaping applied to message text.
  EXPECT_NE(sarif.find("a \\\"quoted\\\" message"), std::string::npos);
  EXPECT_NE(sarif.find("do\\tless"), std::string::npos);
}

TEST(SarifTest, RulesAreDeduplicatedAndSorted) {
  Finding a;
  a.rule = "zeta-rule";
  a.message = "m1";
  Finding b;
  b.rule = "alpha-rule";
  b.message = "m2";
  Finding c;
  c.rule = "zeta-rule";
  c.message = "m3";

  std::ostringstream out;
  RenderFindingsSarif(out, {a, b, c});
  const std::string sarif = out.str();
  const size_t alpha = sarif.find("{\"id\":\"alpha-rule\"}");
  const size_t zeta = sarif.find("{\"id\":\"zeta-rule\"}");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
  // zeta-rule appears once in the rules array.
  EXPECT_EQ(sarif.find("{\"id\":\"zeta-rule\"}", zeta + 1), std::string::npos);
}

TEST(SarifTest, GoldenFileOverSeededViolationModule) {
  auto module = ParseModule(
      ReadFile(std::string(PKRUSAFE_EXAMPLES_IR_DIR) + "/violations/nested_enter.ir"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  ASSERT_TRUE(pm.Run(*module).ok());

  DiagnosticSink sink;
  ASSERT_TRUE(RunPkruFlowLints(*module, nullptr, sink).ok());
  std::ostringstream out;
  RenderFindingsSarif(out, sink.findings(), "nested_enter.ir");

  golden::ExpectMatches(out.str(), "nested_enter.sarif");
}

// The corpus module pkrusafe_lint's JSON test runs: trusted-leak findings
// carrying a function, block, instruction, site and hint.
TEST(FindingsGoldenTest, CallbacksModuleJsonAndSarif) {
  auto module =
      ParseModule(ReadFile(std::string(PKRUSAFE_EXAMPLES_IR_DIR) + "/callbacks.ir"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  ASSERT_TRUE(pm.Run(*module).ok());
  PointsToAnalysis points_to(&*module);
  ASSERT_TRUE(points_to.Run().ok());

  DiagnosticSink sink;
  RunAllLints(*module, points_to, nullptr, sink);
  ASSERT_TRUE(RunPkruFlowLints(*module, &points_to, sink).ok());
  ASSERT_FALSE(sink.empty());

  // The summary extension as pkrusafe_lint writes it with a profile.
  const size_t static_sites = points_to.SharedSites().size();
  std::ostringstream findings;
  RenderFindingsJson(findings, sink.findings(), [static_sites](json::Writer& w) {
    w.Key("precision").BeginObject().Key("static_sites").Uint(static_sites);
    w.Key("dynamic_sites").Uint(3).Key("ratio").Number(StrFormat("%.3f", static_sites / 3.0));
    w.EndObject();
  });
  golden::ExpectMatches(findings.str(), "callbacks.json");

  std::ostringstream sarif;
  RenderFindingsSarif(sarif, sink.findings(), "callbacks.ir");
  golden::ExpectMatches(sarif.str(), "callbacks.sarif");
}

}  // namespace
}  // namespace analysis
}  // namespace pkrusafe
