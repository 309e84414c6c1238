// Static/dynamic gate agreement (the property the link-time check relies
// on): every PKRU transition the runtime actually performs over the corpus
// is one the abstract interpreter classified as a sanctioned gate site, and
// every run ends with the compartment stack balanced.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/pkru_flow.h"
#include "src/core/pkru_safe.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/runtime/call_gate.h"

#ifndef PKRUSAFE_EXAMPLES_IR_DIR
#error "build must define PKRUSAFE_EXAMPLES_IR_DIR"
#endif

namespace pkrusafe {
namespace {

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(PKRUSAFE_EXAMPLES_IR_DIR)) {
    if (entry.path().extension() == ".ir") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ExternRegistry StandardExterns() {
  ExternRegistry externs;
  externs.Register("t_print", [](Interpreter&, const std::vector<int64_t>&) -> Result<int64_t> {
    return 0;
  });
  externs.Register("u_read",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  externs.Register("u_write",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     PS_RETURN_IF_ERROR(interp.StoreChecked(args[0], args[1]));
                     return 0;
                   });
  externs.Register("u_sum",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     int64_t sum = 0;
                     for (int64_t i = 0; i < args[1]; ++i) {
                       PS_ASSIGN_OR_RETURN(int64_t v, interp.LoadChecked(args[0] + i * 8));
                       sum += v;
                     }
                     return sum;
                   });
  externs.Register("u_fill",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     for (int64_t i = 0; i < args[1]; ++i) {
                       PS_RETURN_IF_ERROR(interp.StoreChecked(args[0] + i * 8, args[2]));
                     }
                     return args[1];
                   });
  return externs;
}

TEST(GateAgreementTest, RuntimeCrossingsAreSanctionedStaticSites) {
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    const std::string source = ReadFile(path);

    SystemConfig config;
    config.mode = RuntimeMode::kProfiling;
    auto system = System::Create(source, config, StandardExterns());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    auto result = (*system)->Call("main");
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The abstract interpreter runs over the SAME instrumented module the
    // interpreter executed.
    analysis::PkruFlowAnalysis flow(&(*system)->module());
    ASSERT_TRUE(flow.Run().ok());
    EXPECT_TRUE(flow.gate_balance_proven());

    std::set<std::string> sanctioned;
    for (const analysis::GateSite& site : flow.gate_inventory().sites) {
      sanctioned.insert(site.Key());
    }
    for (const std::string& crossing : (*system)->interpreter().gate_crossing_sites()) {
      EXPECT_TRUE(sanctioned.contains(crossing))
          << "runtime crossed at " << crossing
          << ", which the abstract interpreter did not classify as a sanctioned gate site";
    }

    // Gate balance held dynamically too: every enter was matched by an exit.
    const GateSet& gates = (*system)->runtime().gates();
    EXPECT_EQ(gates.transitions_to_untrusted(), gates.transitions_to_trusted());
    EXPECT_EQ(CompartmentStack::Depth(), 0u);
  }
}

TEST(GateAgreementTest, ModuleWithNoGatesCrossesNowhere) {
  // A module whose only extern is trusted: no sanctioned sites statically,
  // and the runtime must record no crossings.
  const std::string source =
      "module nogates\n"
      "extern @t_print(1)\n"
      "func @main(0) {\n"
      "e:\n"
      "  %0 = const 7\n"
      "  %1 = call @t_print(%0)\n"
      "  ret %0\n"
      "}\n";
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(source, config, StandardExterns());
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->Call("main").ok());

  analysis::PkruFlowAnalysis flow(&(*system)->module());
  ASSERT_TRUE(flow.Run().ok());
  EXPECT_TRUE(flow.gate_inventory().sites.empty());
  EXPECT_TRUE((*system)->interpreter().gate_crossing_sites().empty());
  const GateSet& gates = (*system)->runtime().gates();
  EXPECT_EQ(gates.transition_count(), 0u);
}

}  // namespace
}  // namespace pkrusafe
