// browse_dom: the Dromaeo "dom" and "jslib" kernels in a seeded rotation,
// each operation one gated bench() call on an enforcing runtime assembled
// like WorkloadHarness's mpk configuration. README.md says why.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/dom/bindings.h"
#include "src/dom/document.h"
#include "src/jsvm/vm.h"
#include "src/mpk/pkru.h"
#include "src/runtime/runtime.h"
#include "src/support/string_util.h"
#include "src/workloads/suites.h"

namespace perfbench {
namespace {

using namespace pkrusafe;  // NOLINT: brevity

// Rotations per side of the traced run, which alternates untraced and
// traced rotations.
constexpr uint64_t kTracedRotations = 100;

std::vector<WorkloadSpec> DomSpecs() {
  std::vector<WorkloadSpec> specs;
  for (const SuiteSpec& suite : DromaeoSubSuites()) {
    if (suite.name == "dom" || suite.name == "jslib") {
      specs.insert(specs.end(), suite.workloads.begin(), suite.workloads.end());
    }
  }
  return specs;
}

// The rotation order: a seeded permutation of the kernels.
std::vector<size_t> RotationOrder(size_t kernels, uint64_t seed) {
  std::vector<size_t> order(kernels);
  for (size_t i = 0; i < kernels; ++i) {
    order[i] = i;
  }
  for (size_t i = kernels; i > 1; --i) {
    std::swap(order[i - 1], order[Mix(seed, i, 7) % i]);
  }
  return order;
}

// One assembled kernel: document + engine on a shared runtime. Members are
// destroyed bindings -> vm -> document, as in WorkloadHarness.
struct Kernel {
  std::string name;
  std::unique_ptr<Document> document;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<DomBindings> bindings;
  double expected = 0;  // bench()'s value in the unenforced profiling run
};

// All kernels share one runtime, as pages share a browser's; declared
// first, the runtime is destroyed last.
struct BrowseFixture {
  std::unique_ptr<PkruSafeRuntime> runtime;
  std::vector<Kernel> kernels;
};

RuntimeConfig HarnessConfig(RuntimeMode mode) {
  RuntimeConfig config;
  config.backend = BackendKind::kHardware;
  config.mode = mode;
  config.allocator.trusted_pool_bytes = size_t{2} << 30;
  config.allocator.untrusted_pool_bytes = size_t{2} << 30;
  return config;
}

Result<Kernel> Assemble(PkruSafeRuntime* runtime, const WorkloadSpec& spec) {
  Kernel kernel;
  kernel.name = spec.name;
  kernel.vm = std::make_unique<Vm>(runtime);
  kernel.document = std::make_unique<Document>(runtime);
  kernel.bindings = std::make_unique<DomBindings>(kernel.document.get(), kernel.vm.get());
  PS_RETURN_IF_ERROR(kernel.vm->Load(KernelScript(spec.kernel, spec.params)));
  return kernel;
}

// One gated bench() call; returns its value.
Result<double> GatedBench(PkruSafeRuntime& runtime, Kernel& kernel) {
  Result<Value> result = Value::Null();
  runtime.gates().CallUntrusted([&] { result = kernel.vm->CallFunction("bench", {}); });
  if (!result.ok()) {
    return result.status();
  }
  if (!result->is_number()) {
    return InternalError(kernel.name + ": bench() returned a non-number");
  }
  return result->number;
}

// The kernel's top-level set-up, then its first bench() call.
Result<double> SetupAndFirstBench(PkruSafeRuntime& runtime, Kernel& kernel) {
  Result<Value> setup = Value::Null();
  runtime.gates().CallUntrusted([&] { setup = kernel.vm->Run(); });
  if (!setup.ok()) {
    return setup.status();
  }
  return GatedBench(runtime, kernel);
}

// Set-up as the browser pays it: a profiling run of every kernel on the
// same backend, the site policy from that profile, then assembly plus one
// warm-up bench() per kernel on the enforcing runtime.
Result<std::unique_ptr<BrowseFixture>> BuildFixture(const std::vector<WorkloadSpec>& specs,
                                                    double* profile_s) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  const uint64_t start = NowNs();
  std::vector<double> expected;
  Profile profile;
  {
    PS_ASSIGN_OR_RETURN(auto profiler, PkruSafeRuntime::Create(HarnessConfig(RuntimeMode::kProfiling)));
    std::vector<Kernel> kernels;
    for (const WorkloadSpec& spec : specs) {
      PS_ASSIGN_OR_RETURN(Kernel kernel, Assemble(profiler.get(), spec));
      PS_ASSIGN_OR_RETURN(const double value, SetupAndFirstBench(*profiler, kernel));
      expected.push_back(value);
      kernels.push_back(std::move(kernel));
    }
    profile = profiler->TakeProfile();
    kernels.clear();
  }
  *profile_s = Seconds(NowNs() - start);

  auto fixture = std::make_unique<BrowseFixture>();
  RuntimeConfig config = HarnessConfig(RuntimeMode::kEnforcing);
  config.policy = SitePolicy::FromProfile(profile);
  PS_ASSIGN_OR_RETURN(fixture->runtime, PkruSafeRuntime::Create(std::move(config)));
  for (size_t k = 0; k < specs.size(); ++k) {
    PS_ASSIGN_OR_RETURN(Kernel kernel, Assemble(fixture->runtime.get(), specs[k]));
    kernel.expected = expected[k];
    PS_ASSIGN_OR_RETURN(const double value, SetupAndFirstBench(*fixture->runtime, kernel));
    if (value != kernel.expected) {
      return InternalError(StrFormat("%s: enforced bench() = %.17g, profiling run = %.17g",
                                     kernel.name.c_str(), value, kernel.expected));
    }
    fixture->kernels.push_back(std::move(kernel));
  }
  return fixture;
}

void AddBrowseEnv(BrowseFixture& fixture, Report* report) {
  report->env.push_back(StrFormat("\"backend\":\"%s\"",
                                  std::string(fixture.runtime->backend().name()).c_str()));
  report->env.push_back("\"hw_slots\":null");  // no MultiCompartment on this path
  report->env.push_back(StrFormat("\"kernels\":%zu", fixture.kernels.size()));
}

// Issues operation `index` (kernel order[index % n]); returns correctness
// and stores the gated call's latency.
bool Issue(BrowseFixture& fixture, const std::vector<size_t>& order, uint64_t index,
           uint64_t* latency_ns) {
  Kernel& kernel = fixture.kernels[order[index % order.size()]];
  const uint64_t start = NowNs();
  const Result<double> value = GatedBench(*fixture.runtime, kernel);
  *latency_ns = NowNs() - start;
  return value.ok() && *value == kernel.expected;
}

void CheckBalancedGates(const LayerCounters& delta, uint64_t ops, Report* report) {
  // Every operation enters U once; each DOM call inside re-enters T and
  // comes back, so the two directions must balance exactly.
  if (delta.t_to_u != delta.u_to_t || delta.t_to_u < ops) {
    report->Fail(StrFormat("gate transitions t_to_u=%llu u_to_t=%llu for %llu operations",
                           static_cast<unsigned long long>(delta.t_to_u),
                           static_cast<unsigned long long>(delta.u_to_t),
                           static_cast<unsigned long long>(ops)));
  }
}

void RunTimed(const Args& args, const std::vector<WorkloadSpec>& specs, Report* report) {
  double profile_s = 0;
  double setup_s = 0;
  auto built = BuildMeasured([&] { return BuildFixture(specs, &profile_s); }, &setup_s);
  if (!built.ok()) {
    report->Fail(built.status().ToString());
    return;
  }
  std::unique_ptr<BrowseFixture> fixture = std::move(*built);
  AddBrowseEnv(*fixture, report);
  const std::vector<size_t> order = RotationOrder(specs.size(), args.seed);

  TimedPhase phase(0);
  const LayerCounters before = LayerCounters::Read(*fixture->runtime);
  MeasureFor(
      args.seconds, 0,
      [&](uint64_t index, uint64_t* latency) { return Issue(*fixture, order, index, latency); },
      &phase);
  CheckBalancedGates(LayerCounters::Read(*fixture->runtime) - before, phase.attempted, report);
  AddEndToEnd(phase, setup_s, report);
}

void RunTraced(const Args& args, const std::vector<WorkloadSpec>& specs, Report* report) {
  LayerReport layers;
  const uint64_t faults_before = CounterValue("mpk.faults.serviced");
  auto built = BuildFixture(specs, &layers.setup_profile_s);
  if (!built.ok()) {
    report->Fail(built.status().ToString());
    return;
  }
  layers.mpk_faults_serviced_in_setup =
      static_cast<double>(CounterValue("mpk.faults.serviced") - faults_before);
  BrowseFixture& fixture = **built;
  AddBrowseEnv(fixture, report);
  const std::vector<size_t> order = RotationOrder(specs.size(), args.seed);
  const uint64_t ops = kTracedRotations * specs.size();

  // Untraced and traced rotations alternate, so host speed changes during
  // the run hit both sides alike; counters accumulate over traced ones only.
  enum : uint16_t { kGate, kRun };
  SpanTrace trace({"runtime.gate", "jsvm.run"}, ops * 2);
  std::vector<uint64_t> untraced;
  untraced.reserve(ops);
  uint64_t untraced_wall_ns = 0;
  uint64_t traced_wall_ns = 0;
  LayerCounters delta;
  uint64_t latency = 0;
  uint64_t index = 0;
  uint32_t request = 0;
  for (uint64_t rotation = 0; rotation < 2 * kTracedRotations; ++rotation) {
    if (rotation % 2 == 0) {
      const uint64_t start = NowNs();
      for (size_t k = 0; k < order.size(); ++k) {
        report->failed += Issue(fixture, order, index++, &latency) ? 0 : 1;
        untraced.push_back(latency);
      }
      untraced_wall_ns += NowNs() - start;
      continue;
    }
    const LayerCounters before = LayerCounters::Read(*fixture.runtime);
    const uint64_t start = NowNs();
    for (size_t k = 0; k < order.size(); ++k, ++request) {
      Kernel& kernel = fixture.kernels[order[index++ % order.size()]];
      Result<Value> result = Value::Null();
      const int32_t gate = trace.Open(request, kGate, -1);
      fixture.runtime->gates().CallUntrusted([&] {
        const int32_t run = trace.Open(request, kRun, gate);
        result = kernel.vm->CallFunction("bench", {});
        trace.Close(run);
      });
      trace.Close(gate);
      const bool ok = result.ok() && result->is_number() && result->number == kernel.expected;
      report->failed += ok ? 0 : 1;
    }
    traced_wall_ns += NowNs() - start;
    delta += LayerCounters::Read(*fixture.runtime) - before;
  }
  CheckBalancedGates(delta, ops, report);
  report->attempted = 2 * ops;
  if (report->failed != 0) {
    report->Fail(std::to_string(report->failed) + " traced-run operations failed");
  }

  layers.jsvm_run_us = Mean(trace.DurationsOf(kRun)) / 1e3;
  layers.runtime_gate_us = Mean(trace.SelfTimesOf(kGate)) / 1e3;
  const double untraced_mean_ns = Mean(untraced);
  layers.FillRuntimeLayers(*fixture.runtime, delta, ops, untraced_mean_ns);
  layers.trace_unattributed_frac = 1 - Mean(trace.AttributedPerRequest()) / untraced_mean_ns;
  layers.trace_overhead_frac =
      1 - static_cast<double>(untraced_wall_ns) / static_cast<double>(traced_wall_ns);
  layers.AddTo(report);
  if (!args.trace_out.empty() && !trace.WriteChromeTrace(args.trace_out)) {
    report->Fail("cannot write " + args.trace_out);
  }
}

}  // namespace

void PrintBrowseInputs(const Args& args) {
  const std::vector<WorkloadSpec> specs = DomSpecs();
  const std::vector<size_t> order = RotationOrder(specs.size(), args.seed);
  for (int i = 0; i < args.print_inputs; ++i) {
    std::printf("%s\n", specs[order[static_cast<size_t>(i) % order.size()]].name.c_str());
  }
}

Report RunBrowse(const Args& args) {
  Report report;
  const std::vector<WorkloadSpec> specs = DomSpecs();
  if (args.trace) {
    RunTraced(args, specs, &report);
  } else {
    RunTimed(args, specs, &report);
  }
  return report;
}

}  // namespace perfbench
