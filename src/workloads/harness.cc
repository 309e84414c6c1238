#include "src/workloads/harness.h"

#include <chrono>
#include <cmath>

#include "src/dom/bindings.h"
#include "src/dom/document.h"

namespace pkrusafe {

const char* BenchConfigName(BenchConfig config) {
  switch (config) {
    case BenchConfig::kBase:
      return "base";
    case BenchConfig::kAlloc:
      return "alloc";
    case BenchConfig::kMpk:
      return "mpk";
  }
  return "?";
}

double SuiteResult::mean_alloc_overhead() const {
  if (workloads.empty()) {
    return 0;
  }
  double sum = 0;
  for (const WorkloadResult& w : workloads) {
    sum += w.alloc_overhead();
  }
  return sum / static_cast<double>(workloads.size());
}

double SuiteResult::mean_mpk_overhead() const {
  if (workloads.empty()) {
    return 0;
  }
  double sum = 0;
  for (const WorkloadResult& w : workloads) {
    sum += w.mpk_overhead();
  }
  return sum / static_cast<double>(workloads.size());
}

double SuiteResult::geomean_mpk_normalized() const {
  if (workloads.empty()) {
    return 1;
  }
  double log_sum = 0;
  for (const WorkloadResult& w : workloads) {
    log_sum += std::log(w.mpk_ns / w.base_ns);
  }
  return std::exp(log_sum / static_cast<double>(workloads.size()));
}

double SuiteResult::geomean_alloc_normalized() const {
  if (workloads.empty()) {
    return 1;
  }
  double log_sum = 0;
  for (const WorkloadResult& w : workloads) {
    log_sum += std::log(w.alloc_ns / w.base_ns);
  }
  return std::exp(log_sum / static_cast<double>(workloads.size()));
}

uint64_t SuiteResult::total_transitions() const {
  uint64_t total = 0;
  for (const WorkloadResult& w : workloads) {
    total += w.transitions;
  }
  return total;
}

double SuiteResult::mean_untrusted_fraction() const {
  if (workloads.empty()) {
    return 0;
  }
  double sum = 0;
  for (const WorkloadResult& w : workloads) {
    sum += w.untrusted_fraction;
  }
  return sum / static_cast<double>(workloads.size());
}

namespace {

RuntimeConfig ConfigFor(BenchConfig config, BackendKind backend, const Profile& profile,
                        bool fast_shared_heap) {
  RuntimeConfig rc;
  rc.backend = backend;
  rc.allocator.trusted_pool_bytes = size_t{2} << 30;
  rc.allocator.untrusted_pool_bytes = size_t{2} << 30;
  switch (config) {
    case BenchConfig::kBase:
      rc.mode = RuntimeMode::kDisabled;
      rc.allocator.fast_untrusted_heap = true;  // one fast allocator everywhere
      break;
    case BenchConfig::kAlloc:
      rc.mode = RuntimeMode::kDisabled;
      rc.allocator.fast_untrusted_heap = fast_shared_heap;  // pkalloc split
      break;
    case BenchConfig::kMpk:
      rc.mode = RuntimeMode::kEnforcing;
      rc.allocator.fast_untrusted_heap = fast_shared_heap;
      rc.policy = SitePolicy::FromProfile(profile);
      break;
  }
  return rc;
}

// One assembled instance of the workload: runtime + document + engine.
struct WorkloadInstance {
  std::unique_ptr<PkruSafeRuntime> runtime;
  std::unique_ptr<Document> document;
  std::unique_ptr<Vm> vm;
  std::unique_ptr<DomBindings> bindings;
};

Result<WorkloadInstance> Assemble(const WorkloadSpec& spec, RuntimeConfig rc) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  WorkloadInstance instance;
  PS_ASSIGN_OR_RETURN(instance.runtime, PkruSafeRuntime::Create(std::move(rc)));
  instance.vm = std::make_unique<Vm>(instance.runtime.get());
  if (KernelUsesDom(spec.kernel)) {
    instance.document = std::make_unique<Document>(instance.runtime.get());
    instance.bindings =
        std::make_unique<DomBindings>(instance.document.get(), instance.vm.get());
  }
  PS_RETURN_IF_ERROR(instance.vm->Load(KernelScript(spec.kernel, spec.params)));
  return instance;
}

// Runs top-level setup then calls bench() once, inside a gate when the
// runtime instruments transitions.
Status RunSetupAndOneBench(WorkloadInstance& instance) {
  Status status = Status::Ok();
  auto body = [&] {
    auto setup = instance.vm->Run();
    if (!setup.ok()) {
      status = setup.status();
      return;
    }
    auto bench = instance.vm->CallFunction("bench", {});
    if (!bench.ok()) {
      status = bench.status();
    }
  };
  if (instance.runtime->gates().enabled()) {
    instance.runtime->gates().CallUntrusted(body);
  } else {
    body();
  }
  return status;
}

}  // namespace

Result<Profile> WorkloadHarness::CollectProfile(const WorkloadSpec& spec) {
  RuntimeConfig rc;
  rc.backend = options_.backend;
  rc.mode = RuntimeMode::kProfiling;
  rc.allocator.trusted_pool_bytes = size_t{2} << 30;
  rc.allocator.untrusted_pool_bytes = size_t{2} << 30;
  PS_ASSIGN_OR_RETURN(WorkloadInstance instance, Assemble(spec, std::move(rc)));
  PS_RETURN_IF_ERROR(RunSetupAndOneBench(instance));
  return instance.runtime->TakeProfile();
}

Result<double> WorkloadHarness::TimeConfiguration(const WorkloadSpec& spec, BenchConfig config,
                                                  const Profile& profile,
                                                  WorkloadResult* result) {
  PS_ASSIGN_OR_RETURN(WorkloadInstance instance,
                      Assemble(spec, ConfigFor(config, options_.backend, profile,
                                               options_.fast_shared_heap)));

  // Setup + warmup.
  PS_RETURN_IF_ERROR(RunSetupAndOneBench(instance));

  const bool gated = instance.runtime->gates().enabled();
  const uint64_t transitions_before = instance.runtime->gates().transition_count();

  // Each repetition is timed separately and the minimum is reported: the
  // fastest observation is the least contaminated by scheduler noise, which
  // matters because normalized overheads divide two small numbers.
  Status status = Status::Ok();
  double best_ns = 0;
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    auto body = [&] {
      auto bench = instance.vm->CallFunction("bench", {});
      if (!bench.ok()) {
        status = bench.status();
      }
    };
    const auto start = std::chrono::steady_clock::now();
    if (gated) {
      instance.runtime->gates().CallUntrusted(body);
    } else {
      body();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (!status.ok()) {
      return status;
    }
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    if (rep == 0 || ns < best_ns) {
      best_ns = ns;
    }
  }

  if (config == BenchConfig::kMpk && result != nullptr) {
    result->transitions =
        instance.runtime->gates().transition_count() - transitions_before;
    const RuntimeStats stats = instance.runtime->stats();
    result->untrusted_fraction = stats.untrusted_fraction();
    result->sites_seen = stats.sites_seen;
    result->sites_shared = stats.sites_shared;
  }
  return best_ns;
}

Result<WorkloadResult> WorkloadHarness::RunWorkload(const WorkloadSpec& spec) {
  WorkloadResult result;
  result.name = spec.name;

  PS_ASSIGN_OR_RETURN(Profile profile, CollectProfile(spec));
  PS_ASSIGN_OR_RETURN(result.base_ns,
                      TimeConfiguration(spec, BenchConfig::kBase, profile, nullptr));
  PS_ASSIGN_OR_RETURN(result.alloc_ns,
                      TimeConfiguration(spec, BenchConfig::kAlloc, profile, nullptr));
  PS_ASSIGN_OR_RETURN(result.mpk_ns,
                      TimeConfiguration(spec, BenchConfig::kMpk, profile, &result));
  return result;
}

Result<SuiteResult> WorkloadHarness::RunSuite(const SuiteSpec& suite) {
  SuiteResult result;
  result.name = suite.name;
  for (const WorkloadSpec& spec : suite.workloads) {
    PS_ASSIGN_OR_RETURN(WorkloadResult workload, RunWorkload(spec));
    result.workloads.push_back(std::move(workload));
  }
  return result;
}

}  // namespace pkrusafe
