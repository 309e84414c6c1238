// Property tests over the examples/ir/ corpus: for every module,
//
//   dynamic profile  ⊆  points-to static profile  ⊆  recorded one-cell profile
//
// and on at least one module the points-to profile is STRICTLY smaller than
// the one-cell one (the precision the per-site model buys). The one-cell
// model (one memory cell for the whole module) is gone; its profiles are
// the constants below, recorded from it over this corpus. Each module must
// also run clean under enforcement driven by its points-to profile — i.e.
// the static profile is usable without any profiling run.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/points_to.h"
#include "src/core/pkru_safe.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"

#ifndef PKRUSAFE_EXAMPLES_IR_DIR
#error "build must define PKRUSAFE_EXAMPLES_IR_DIR"
#endif

namespace pkrusafe {
namespace {

// The one-cell model's static profile of each corpus module, as
// AllocId::ToString() strings (docs/static_analysis.md, "Precision").
struct RecordedOneCell {
  const char* module;  // file name under examples/ir/
  std::vector<std::string> sites;
};

const std::vector<RecordedOneCell>& RecordedOneCellProfiles() {
  static const std::vector<RecordedOneCell> recorded = {
      {"callbacks.ir", {"0:0:0", "1:0:0"}},
      {"explicit_gates.ir", {"3:0:0"}},
      {"interproc.ir", {"0:0:0", "2:0:0"}},
      {"linked_chain.ir", {"0:0:0", "0:0:1", "0:0:2", "0:0:4"}},
      {"private_workspace.ir", {"0:0:0"}},
      {"store_load_chains.ir", {"0:0:1", "0:0:2"}},
      {"telemetry_demo.ir", {"0:0:0"}},
  };
  return recorded;
}

const RecordedOneCell* RecordedOneCellFor(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  for (const RecordedOneCell& record : RecordedOneCellProfiles()) {
    if (name == record.module) {
      return &record;
    }
  }
  return nullptr;
}

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

// Mirrors the standard library pkrusafe_run links programs against.
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

Profile StaticProfile(const std::string& source) {
  auto module = ParseModule(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  EXPECT_TRUE(pm.Run(*module).ok());
  analysis::PointsToAnalysis analysis(&*module);
  const Status status = analysis.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  Profile profile;
  for (const AllocId& id : analysis.SharedSites()) {
    profile.Add(id);
  }
  return profile;
}

Profile DynamicProfile(const std::string& source) {
  SystemConfig config;
  config.mode = RuntimeMode::kProfiling;
  auto system = System::Create(source, config, StandardExterns());
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  auto result = (*system)->Call("main");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return (*system)->TakeProfile();
}

bool IsSubset(const Profile& a, const Profile& b, std::string* missing) {
  for (const AllocId& id : a.Sites()) {
    if (!b.Contains(id)) {
      *missing = id.ToString();
      return false;
    }
  }
  return true;
}

TEST(CorpusPropertyTest, CorpusIsPresent) {
  EXPECT_GE(CorpusFiles().size(), 4u);
  for (const RecordedOneCell& record : RecordedOneCellProfiles()) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(PKRUSAFE_EXAMPLES_IR_DIR) /
                                        record.module))
        << record.module;
  }
}

TEST(CorpusPropertyTest, DynamicSubsetOfPointsToSubsetOfOneCell) {
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    const std::string source = ReadFile(path);
    const Profile dynamic = DynamicProfile(source);
    const Profile points_to = StaticProfile(source);

    std::string missing;
    EXPECT_TRUE(IsSubset(dynamic, points_to, &missing))
        << "dynamic site " << missing << " not in points-to profile (soundness bug)";
    if (const RecordedOneCell* one_cell = RecordedOneCellFor(path)) {
      for (const AllocId& id : points_to.Sites()) {
        EXPECT_NE(std::find(one_cell->sites.begin(), one_cell->sites.end(), id.ToString()),
                  one_cell->sites.end())
            << "points-to site " << id.ToString() << " not in the recorded one-cell profile";
      }
    }
  }
}

TEST(CorpusPropertyTest, PointsToIsStrictlyTighterSomewhere) {
  size_t strictly_tighter = 0;
  for (const RecordedOneCell& record : RecordedOneCellProfiles()) {
    const std::string source =
        ReadFile((std::filesystem::path(PKRUSAFE_EXAMPLES_IR_DIR) / record.module).string());
    if (StaticProfile(source).site_count() < record.sites.size()) {
      ++strictly_tighter;
    }
  }
  EXPECT_GE(strictly_tighter, 1u) << "points-to never beat one-cell on the corpus";
}

TEST(CorpusPropertyTest, StaticProfileDrivesEnforcementOnWholeCorpus) {
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    const std::string source = ReadFile(path);
    SystemConfig config;
    config.mode = RuntimeMode::kEnforcing;
    config.profile = StaticProfile(source);
    auto system = System::Create(source, config, StandardExterns());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    auto result = (*system)->Call("main");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST(CorpusPropertyTest, BaselineRunMatchesEnforcedRun) {
  // Partitioning must not change program results (§5: unmodified semantics).
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    const std::string source = ReadFile(path);

    SystemConfig off;
    off.mode = RuntimeMode::kDisabled;
    auto baseline = System::Create(source, off, StandardExterns());
    ASSERT_TRUE(baseline.ok());
    auto baseline_result = (*baseline)->Call("main");
    ASSERT_TRUE(baseline_result.ok()) << baseline_result.status().ToString();

    SystemConfig enforce;
    enforce.mode = RuntimeMode::kEnforcing;
    enforce.profile = StaticProfile(source);
    auto enforced = System::Create(source, enforce, StandardExterns());
    ASSERT_TRUE(enforced.ok());
    auto enforced_result = (*enforced)->Call("main");
    ASSERT_TRUE(enforced_result.ok()) << enforced_result.status().ToString();

    EXPECT_EQ(*baseline_result, *enforced_result);
  }
}

}  // namespace
}  // namespace pkrusafe
