#include <gtest/gtest.h>

#include "src/dom/bindings.h"
#include "src/mpk/hardware_backend.h"
#include "src/workloads/harness.h"
#include "src/workloads/kernels.h"
#include "src/workloads/suites.h"

namespace pkrusafe {
namespace {

WorkloadSpec W(std::string name, KernelKind kernel, int size, int inner_iters) {
  return WorkloadSpec{std::move(name), kernel, KernelParams{size, inner_iters}};
}

std::unique_ptr<PkruSafeRuntime> MakeRuntime() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kDisabled;
  config.allocator.trusted_pool_bytes = size_t{1} << 30;
  config.allocator.untrusted_pool_bytes = size_t{1} << 30;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok());
  return std::move(*runtime);
}

// Every kernel must parse, compile, run its setup and execute bench() at a
// small size, producing a numeric result.
class KernelSmokeTest : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelSmokeTest, CompilesAndRuns) {
  const KernelKind kind = GetParam();
  auto runtime = MakeRuntime();
  Vm vm(runtime.get());
  std::unique_ptr<Document> document;
  std::unique_ptr<DomBindings> bindings;
  if (KernelUsesDom(kind)) {
    document = std::make_unique<Document>(runtime.get());
    bindings = std::make_unique<DomBindings>(document.get(), &vm);
  }

  KernelParams params;
  params.size = kind == KernelKind::kFft ? 16 : 8;  // fft needs a power of 2
  params.inner_iters = 1;
  const std::string script = KernelScript(kind, params);
  ASSERT_FALSE(script.empty());

  const Status load = vm.Load(script);
  ASSERT_TRUE(load.ok()) << KernelKindName(kind) << ": " << load.ToString() << "\n" << script;
  auto setup = vm.Run();
  ASSERT_TRUE(setup.ok()) << KernelKindName(kind) << ": " << setup.status().ToString();
  auto result = vm.CallFunction("bench", {});
  ASSERT_TRUE(result.ok()) << KernelKindName(kind) << ": " << result.status().ToString();
  EXPECT_TRUE(result->is_number()) << KernelKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSmokeTest,
    ::testing::Values(KernelKind::kFft, KernelKind::kCryptoRounds, KernelKind::kAesRounds,
                      KernelKind::kGaussianBlur, KernelKind::kPixelMap, KernelKind::kAstar,
                      KernelKind::kJsonParse, KernelKind::kJsonStringify,
                      KernelKind::kStringChurn, KernelKind::kRegexLite, KernelKind::kSort,
                      KernelKind::kRichards, KernelKind::kDeltaBlue, KernelKind::kSplay,
                      KernelKind::kNbody, KernelKind::kRayTrace, KernelKind::kMandel,
                      KernelKind::kCodeLoad, KernelKind::kMachine, KernelKind::kDomChurn,
                      KernelKind::kDomQuery, KernelKind::kDomRead, KernelKind::kJslibMix),
    [](const ::testing::TestParamInfo<KernelKind>& param_info) {
      std::string name = KernelKindName(param_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(KernelDeterminismTest, BenchIsDeterministicAcrossRuns) {
  // Same kernel, two fresh engines: identical results (the harness depends
  // on workloads being reproducible).
  for (KernelKind kind : {KernelKind::kSort, KernelKind::kCryptoRounds, KernelKind::kMachine}) {
    double results[2];
    for (int run = 0; run < 2; ++run) {
      auto runtime = MakeRuntime();
      Vm vm(runtime.get());
      KernelParams params{16, 2};
      ASSERT_TRUE(vm.Load(KernelScript(kind, params)).ok());
      ASSERT_TRUE(vm.Run().ok());
      auto result = vm.CallFunction("bench", {});
      ASSERT_TRUE(result.ok());
      results[run] = result->number;
    }
    EXPECT_EQ(results[0], results[1]) << KernelKindName(kind);
  }
}

TEST(SuiteSpecTest, SuitesMatchPaperStructure) {
  const auto dromaeo = DromaeoSubSuites();
  ASSERT_EQ(dromaeo.size(), 5u);
  EXPECT_EQ(dromaeo[0].name, "dom");
  EXPECT_EQ(dromaeo[4].name, "jslib");

  EXPECT_EQ(KrakenSuite().workloads.size(), 14u);   // Fig. 5 has 14 kernels
  EXPECT_EQ(OctaneSuite().workloads.size(), 17u);   // Fig. 6
  EXPECT_GE(JetStream2Suite().workloads.size(), 55u);  // Fig. 7 (~60)
}

TEST(SuiteSpecTest, DomSuitesUseDomKernels) {
  const auto dromaeo = DromaeoSubSuites();
  for (const WorkloadSpec& w : dromaeo[0].workloads) {  // dom
    EXPECT_TRUE(KernelUsesDom(w.kernel)) << w.name;
  }
  for (const WorkloadSpec& w : dromaeo[1].workloads) {  // v8
    EXPECT_FALSE(KernelUsesDom(w.kernel)) << w.name;
  }
  for (const WorkloadSpec& w : KrakenSuite().workloads) {
    EXPECT_FALSE(KernelUsesDom(w.kernel)) << w.name;
  }
}

TEST(HarnessTest, RunsAWorkloadAcrossAllConfigs) {
  HarnessOptions options;
  options.repetitions = 2;
  WorkloadHarness harness(options);
  auto result = harness.RunWorkload(W(std::string("probe"), KernelKind::kSort, 32, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->base_ns, 0);
  EXPECT_GT(result->alloc_ns, 0);
  EXPECT_GT(result->mpk_ns, 0);
}

TEST(HarnessTest, DomWorkloadCountsTransitionsOnlyUnderMpk) {
  HarnessOptions options;
  options.repetitions = 2;
  WorkloadHarness harness(options);
  auto result =
      harness.RunWorkload(W(std::string("dom-probe"), KernelKind::kDomQuery, 6, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->transitions, 0u);
  EXPECT_GT(result->untrusted_fraction, 0.0);
}

// Transition counts and %M_U are properties of the workload and its profile,
// not of the backend enforcing it.
TEST(HarnessTest, TransitionCountsMatchAcrossBackends) {
  std::vector<BackendKind> backends = {BackendKind::kSim, BackendKind::kMprotect};
  if (HardwareMpkBackend::IsSupported()) {
    backends.push_back(BackendKind::kHardware);
  }
  std::vector<WorkloadResult> results;
  for (const BackendKind backend : backends) {
    HarnessOptions options;
    options.repetitions = 2;
    options.backend = backend;
    auto result = WorkloadHarness(options).RunWorkload(
        W(std::string("dom-probe"), KernelKind::kDomQuery, 6, 1));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(*result);
  }
  EXPECT_GT(results[0].transitions, 0u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].transitions, results[0].transitions) << "backend " << i;
    EXPECT_EQ(results[i].untrusted_fraction, results[0].untrusted_fraction) << "backend " << i;
  }
}

TEST(HarnessTest, ComputeWorkloadHasMinimalTransitions) {
  HarnessOptions options;
  options.repetitions = 2;
  WorkloadHarness harness(options);
  auto compute =
      harness.RunWorkload(W(std::string("cpu-probe"), KernelKind::kCryptoRounds, 16, 2));
  auto dom = harness.RunWorkload(W(std::string("dom-probe"), KernelKind::kDomQuery, 8, 2));
  ASSERT_TRUE(compute.ok());
  ASSERT_TRUE(dom.ok());
  // The paper's central correlation: dom-style workloads cross the boundary
  // orders of magnitude more often than compute workloads.
  EXPECT_GT(dom->transitions, 10 * compute->transitions);
}

TEST(HarnessTest, SuiteAggregatesAreConsistent) {
  HarnessOptions options;
  options.repetitions = 1;
  WorkloadHarness harness(options);
  SuiteSpec suite{"probe",
                  {W(std::string("a"), KernelKind::kSort, 16, 1),
                   W(std::string("b"), KernelKind::kMandel, 10, 1)}};
  auto result = harness.RunSuite(suite);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->workloads.size(), 2u);
  EXPECT_GT(result->geomean_mpk_normalized(), 0.0);
}

}  // namespace
}  // namespace pkrusafe
